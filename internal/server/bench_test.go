package server

import (
	"testing"

	"willow/internal/telemetry"
)

// BenchmarkServerTick measures the daemon's tick hot path — the full
// controller step plus hub publication, with one (unread) subscriber
// attached — over a complete 200-tick run of the 6-server test
// topology. Machine construction is excluded from the timed region.
// Alloc counts are deterministic and gated by benchguard.
func BenchmarkServerTick(b *testing.B) {
	spec := testSpec()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		d, err := New(spec)
		if err != nil {
			b.Fatal(err)
		}
		sub := d.Hub().Subscribe(64)
		b.StartTimer()

		d.StepN(spec.Ticks)

		b.StopTimer()
		d.Hub().Unsubscribe(sub)
		d.Close()
		b.StartTimer()
	}
}

// BenchmarkEventsFanout measures a lossy Hub's Publish with 8
// subscribers at steady state (full buffers, drop path) — the cost one
// tick pays per event when streams are attached. Must stay
// allocation-free: a publish that allocates would put the tick loop at
// the mercy of the garbage collector under high subscriber counts.
func BenchmarkEventsFanout(b *testing.B) {
	h := newHub[telemetry.Event](false)
	defer h.Close()
	for i := 0; i < 8; i++ {
		h.Subscribe(64) // never read: exercises fill then sustained drop
	}
	ev := telemetry.Event{Tick: 1, Kind: telemetry.KindBudgetChange, Node: 3, Watts: 450, Prev: 400}
	b.ReportAllocs()
	b.ResetTimer() // subscription buffers are setup, not publish cost
	for i := 0; i < b.N; i++ {
		h.Publish(ev)
	}
}
