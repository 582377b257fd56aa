package sim_test

import (
	"fmt"

	"willow/internal/sim"
)

// Example shows the raw event calendar: schedule closures at ticks, run
// to a horizon.
func Example() {
	e := sim.New()
	e.Every(0, 10, func(now sim.Tick) {
		fmt.Printf("heartbeat at %d\n", now)
	})
	e.Schedule(15, func(now sim.Tick) {
		fmt.Printf("one-shot at %d\n", now)
	})
	if err := e.Run(25); err != nil {
		panic(err)
	}

	// Output:
	// heartbeat at 0
	// heartbeat at 10
	// one-shot at 15
	// heartbeat at 20
}
