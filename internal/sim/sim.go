// Package sim is a small deterministic discrete-event simulation kernel.
//
// Willow's evaluation runs on discrete control epochs (the paper's Δ_D,
// Δ_S = η1·Δ_D and Δ_A = η2·Δ_D time granularities, Section IV-C), so the
// kernel is organised around an integer tick clock plus an event calendar:
// events are closures scheduled at a tick, executed in (tick, FIFO) order.
// Determinism is guaranteed by a monotonically increasing sequence number
// that breaks ties between events scheduled for the same tick, so two runs
// with the same inputs execute events in exactly the same order.
//
// The kernel deliberately has no goroutines: a simulation is a single
// logical thread of control, and the reproducibility of a run must not
// depend on the Go scheduler.
package sim

import (
	"container/heap"
	"errors"
	"fmt"
)

// Tick is a point in simulated time. The physical duration of one tick is
// whatever the model assigns to it (Willow uses one demand window Δ_D).
type Tick int64

// Event is a unit of simulated work executed at a scheduled tick.
type Event func(now Tick)

// ErrStopped is returned by Run when the simulation was stopped explicitly
// via Engine.Stop before reaching its horizon.
var ErrStopped = errors.New("sim: stopped")

type scheduledEvent struct {
	at  Tick
	seq uint64 // tie-break: FIFO among same-tick events
	fn  Event
}

type eventQueue []*scheduledEvent

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x any)   { *q = append(*q, x.(*scheduledEvent)) }
func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return ev
}

// Engine owns the simulated clock and the event calendar.
// The zero value is ready to use at tick 0.
type Engine struct {
	now     Tick
	queue   eventQueue
	seq     uint64
	stopped bool
	// executed counts events run since construction; useful for tests and
	// for sanity-checking run sizes.
	executed uint64
}

// New returns a fresh Engine at tick 0.
func New() *Engine { return &Engine{} }

// Now returns the current simulated tick.
func (e *Engine) Now() Tick { return e.now }

// Executed reports how many events have run so far.
func (e *Engine) Executed() uint64 { return e.executed }

// Pending reports how many events are waiting in the calendar.
func (e *Engine) Pending() int { return len(e.queue) }

// Schedule enqueues fn to run at tick at. Scheduling in the past (before
// the current tick) is a programming error and panics, since silently
// reordering causality would corrupt any experiment built on the kernel.
func (e *Engine) Schedule(at Tick, fn Event) {
	if fn == nil {
		panic("sim: Schedule with nil event")
	}
	if at < e.now {
		panic(fmt.Sprintf("sim: event scheduled at tick %d, before current tick %d", at, e.now))
	}
	e.seq++
	heap.Push(&e.queue, &scheduledEvent{at: at, seq: e.seq, fn: fn})
}

// After enqueues fn to run delay ticks from now. A zero delay runs within
// the current tick, after all events already enqueued for it.
func (e *Engine) After(delay Tick, fn Event) {
	if delay < 0 {
		panic("sim: After with negative delay")
	}
	e.Schedule(e.now+delay, fn)
}

// Every schedules fn at start and then every period ticks thereafter,
// until the engine stops or the horizon passed to Run is reached.
// It panics if period <= 0.
func (e *Engine) Every(start, period Tick, fn Event) {
	if period <= 0 {
		panic("sim: Every with non-positive period")
	}
	var wrapped Event
	wrapped = func(now Tick) {
		fn(now)
		if !e.stopped {
			e.Schedule(now+period, wrapped)
		}
	}
	e.Schedule(start, wrapped)
}

// Stop halts the run loop after the currently executing event returns.
func (e *Engine) Stop() { e.stopped = true }

// Step executes the single next event, advancing the clock to its tick.
// It reports false when the calendar is empty.
func (e *Engine) Step() bool {
	if len(e.queue) == 0 {
		return false
	}
	ev := heap.Pop(&e.queue).(*scheduledEvent)
	e.now = ev.at
	e.executed++
	ev.fn(e.now)
	return true
}

// Run executes events until the calendar is exhausted or an event's tick
// would exceed horizon. Events scheduled exactly at horizon still run.
// On return the clock rests at min(horizon, last executed tick); it returns
// ErrStopped if Stop was called.
func (e *Engine) Run(horizon Tick) error {
	e.stopped = false
	for len(e.queue) > 0 && !e.stopped {
		if e.queue[0].at > horizon {
			break
		}
		e.Step()
	}
	if e.now < horizon && !e.stopped {
		e.now = horizon
	}
	if e.stopped {
		return ErrStopped
	}
	return nil
}

// RunAll executes events until the calendar is empty or Stop is called.
// Use only with models that are guaranteed to quiesce (no Every loops).
func (e *Engine) RunAll() error {
	e.stopped = false
	for e.Step() {
		if e.stopped {
			return ErrStopped
		}
	}
	return nil
}
