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

// BatchSink is an optional extension a Sink may implement to accept a
// whole tick's worth of events in one call. The controller buffers the
// events it publishes during a step and hands the batch over at the
// step boundary, so sinks that can amortize per-event overhead (an
// append loop, one buffered write) get the chance to. PublishBatch must
// behave exactly like publishing each event in slice order; the slice
// is owned by the caller and must not be retained.
type BatchSink interface {
	Sink
	PublishBatch([]Event)
}

// PublishAll delivers events to s in order, using the batch fast path
// when s implements BatchSink. A nil sink or empty batch is a no-op.
func PublishAll(s Sink, events []Event) {
	if s == nil || len(events) == 0 {
		return
	}
	if bs, ok := s.(BatchSink); ok {
		bs.PublishBatch(events)
		return
	}
	for _, e := range events {
		s.Publish(e)
	}
}

// PublishBatch implements BatchSink by fanning the whole batch out to
// each sink in turn, preserving per-sink event order.
func (m multi) PublishBatch(events []Event) {
	for _, s := range m {
		PublishAll(s, events)
	}
}

// Filter passes only events whose kind is in Keep through to Next.
type Filter struct {
	Next Sink
	Keep KindSet
}

// Publish implements Sink.
func (f *Filter) Publish(e Event) {
	if f.Keep.Has(e.Kind) {
		f.Next.Publish(e)
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

// PublishBatch implements BatchSink with a single append.
func (b *Buffer) PublishBatch(events []Event) { b.Events = append(b.Events, events...) }

// ReplayTo republishes every buffered event into dst in order.
func (b *Buffer) ReplayTo(dst Sink) {
	if dst == nil {
		return
	}
	for _, e := range b.Events {
		dst.Publish(e)
	}
}

// Reset drops the buffered events, keeping the capacity.
func (b *Buffer) Reset() { b.Events = b.Events[:0] }
