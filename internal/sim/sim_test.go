package sim

import (
	"errors"
	"sort"
	"testing"
	"testing/quick"
)

func TestEngineStartsAtZero(t *testing.T) {
	e := New()
	if e.Now() != 0 {
		t.Errorf("new engine at tick %d, want 0", e.Now())
	}
	if e.Pending() != 0 {
		t.Errorf("new engine has %d pending events, want 0", e.Pending())
	}
}

func TestEventsRunInTimeOrder(t *testing.T) {
	e := New()
	var order []Tick
	for _, at := range []Tick{5, 1, 9, 3, 7} {
		at := at
		e.Schedule(at, func(now Tick) { order = append(order, now) })
	}
	if err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	if !sort.SliceIsSorted(order, func(i, j int) bool { return order[i] < order[j] }) {
		t.Errorf("events ran out of order: %v", order)
	}
	if len(order) != 5 {
		t.Errorf("ran %d events, want 5", len(order))
	}
}

func TestSameTickEventsRunFIFO(t *testing.T) {
	e := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(4, func(Tick) { order = append(order, i) })
	}
	if err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("same-tick events not FIFO: %v", order)
		}
	}
}

func TestClockAdvancesToEventTick(t *testing.T) {
	e := New()
	e.Schedule(17, func(now Tick) {
		if now != 17 {
			t.Errorf("event saw now=%d, want 17", now)
		}
	})
	e.Step()
	if e.Now() != 17 {
		t.Errorf("clock at %d after event, want 17", e.Now())
	}
}

func TestSchedulePastPanics(t *testing.T) {
	e := New()
	e.Schedule(5, func(Tick) {})
	e.Step()
	defer func() {
		if recover() == nil {
			t.Error("scheduling in the past did not panic")
		}
	}()
	e.Schedule(2, func(Tick) {})
}

func TestScheduleNilPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("nil event did not panic")
		}
	}()
	New().Schedule(0, nil)
}

func TestAfter(t *testing.T) {
	e := New()
	e.Schedule(10, func(Tick) {})
	e.Step() // now = 10
	var ran Tick = -1
	e.After(5, func(now Tick) { ran = now })
	if err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	if ran != 15 {
		t.Errorf("After(5) from tick 10 ran at %d, want 15", ran)
	}
}

func TestAfterNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("After(-1) did not panic")
		}
	}()
	New().After(-1, func(Tick) {})
}

func TestEveryFiresPeriodically(t *testing.T) {
	e := New()
	var fired []Tick
	e.Every(0, 3, func(now Tick) { fired = append(fired, now) })
	if err := e.Run(10); err != nil {
		t.Fatal(err)
	}
	want := []Tick{0, 3, 6, 9}
	if len(fired) != len(want) {
		t.Fatalf("Every fired at %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("Every fired at %v, want %v", fired, want)
		}
	}
}

func TestEveryBadPeriodPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Every with period 0 did not panic")
		}
	}()
	New().Every(0, 0, func(Tick) {})
}

func TestRunHorizonLeavesLaterEvents(t *testing.T) {
	e := New()
	ran := 0
	e.Schedule(5, func(Tick) { ran++ })
	e.Schedule(20, func(Tick) { ran++ })
	if err := e.Run(10); err != nil {
		t.Fatal(err)
	}
	if ran != 1 {
		t.Errorf("ran %d events before horizon 10, want 1", ran)
	}
	if e.Pending() != 1 {
		t.Errorf("%d pending after horizon, want 1", e.Pending())
	}
	if e.Now() != 10 {
		t.Errorf("clock at %d after Run(10), want 10", e.Now())
	}
}

func TestRunEventAtHorizonRuns(t *testing.T) {
	e := New()
	ran := false
	e.Schedule(10, func(Tick) { ran = true })
	if err := e.Run(10); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Error("event exactly at horizon did not run")
	}
}

func TestStop(t *testing.T) {
	e := New()
	ran := 0
	e.Schedule(1, func(Tick) { ran++; e.Stop() })
	e.Schedule(2, func(Tick) { ran++ })
	err := e.Run(100)
	if !errors.Is(err, ErrStopped) {
		t.Errorf("Run returned %v, want ErrStopped", err)
	}
	if ran != 1 {
		t.Errorf("ran %d events after Stop, want 1", ran)
	}
}

func TestStopFromEveryLoopTerminates(t *testing.T) {
	e := New()
	count := 0
	e.Every(0, 1, func(Tick) {
		count++
		if count == 5 {
			e.Stop()
		}
	})
	err := e.Run(1000)
	if !errors.Is(err, ErrStopped) {
		t.Fatalf("Run returned %v, want ErrStopped", err)
	}
	if count != 5 {
		t.Errorf("Every fired %d times, want 5", count)
	}
}

func TestEventsScheduledDuringRun(t *testing.T) {
	e := New()
	var order []string
	e.Schedule(1, func(Tick) {
		order = append(order, "a")
		e.After(0, func(Tick) { order = append(order, "b") })
	})
	e.Schedule(1, func(Tick) { order = append(order, "c") })
	if err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	// "b" was enqueued at tick 1 after "c" was already queued, so FIFO
	// within the tick gives a, c, b.
	want := "acb"
	got := ""
	for _, s := range order {
		got += s
	}
	if got != want {
		t.Errorf("execution order %q, want %q", got, want)
	}
}

func TestExecutedCounter(t *testing.T) {
	e := New()
	for i := Tick(0); i < 7; i++ {
		e.Schedule(i, func(Tick) {})
	}
	if err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	if e.Executed() != 7 {
		t.Errorf("Executed() = %d, want 7", e.Executed())
	}
}

// Property: for any multiset of schedule ticks, execution order is the
// sorted order (stable by insertion within equal ticks).
func TestOrderingQuick(t *testing.T) {
	f := func(raw []uint8) bool {
		e := New()
		type rec struct {
			at  Tick
			idx int
		}
		var got []rec
		for i, r := range raw {
			at := Tick(r % 32)
			i := i
			e.Schedule(at, func(now Tick) { got = append(got, rec{now, i}) })
		}
		if err := e.RunAll(); err != nil {
			return false
		}
		if len(got) != len(raw) {
			return false
		}
		for k := 1; k < len(got); k++ {
			if got[k].at < got[k-1].at {
				return false
			}
			if got[k].at == got[k-1].at && got[k].idx < got[k-1].idx {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func BenchmarkScheduleAndRun(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := New()
		for j := 0; j < 1000; j++ {
			e.Schedule(Tick(j%97), func(Tick) {})
		}
		if err := e.RunAll(); err != nil {
			b.Fatal(err)
		}
	}
}
