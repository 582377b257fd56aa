package telemetry

// General-purpose sinks. All of them follow the package contract: not
// safe for concurrent use, owned by one simulation run at a time.

// Discard swallows every event — a true no-op sink for measuring the
// enabled-dispatch overhead in benchmarks.
var Discard Sink = discard{}

type discard struct{}

func (discard) Publish(Event) {}

// Multi fans events out to every non-nil sink, in argument order. It
// returns nil when no sink remains (so "disabled" stays a nil check in
// the controller), and the sink itself when exactly one remains.
func Multi(sinks ...Sink) Sink {
	var live multi
	for _, s := range sinks {
		if s != nil {
			live = append(live, s)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	default:
		return live
	}
}

type multi []Sink

func (m multi) Publish(e Event) {
	for _, s := range m {
		s.Publish(e)
	}
}

// Buffer is an unbounded in-memory sink. Parallel harnesses give each
// simulation run its own Buffer and replay the buffers in a
// deterministic order afterwards — that is how cluster.RunAll merges
// concurrent runs into one byte-stable stream.
type Buffer struct {
	Events []Event
}

// Publish implements Sink.
func (b *Buffer) Publish(e Event) { b.Events = append(b.Events, e) }

// ReplayTo republishes every buffered event into dst in order.
func (b *Buffer) ReplayTo(dst Sink) {
	if dst == nil {
		return
	}
	for _, e := range b.Events {
		dst.Publish(e)
	}
}
