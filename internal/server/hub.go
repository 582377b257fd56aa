package server

import (
	"sort"
	"sync"

	"willow/internal/telemetry"
)

// Hub fans the daemon's telemetry stream out to any number of
// subscribers with strictly bounded buffering: Publish never blocks,
// so a slow or stuck subscriber (an SSE client on a bad link) can
// never stall the tick loop. Overflow drops the event for that
// subscriber only and counts it — lossy by design; consumers that need
// the complete stream attach a lossless sink to the daemon instead
// (Daemon.SetSink), which publishes under the tick lock.
type Hub struct {
	mu        sync.Mutex
	subs      map[*Subscription]struct{}
	nextID    int64
	published int64
	dropped   int64
	closed    bool
	done      chan struct{}
}

// Subscription is one subscriber's bounded event feed. Receive from C
// until it closes (hub shut down or Unsubscribe called).
type Subscription struct {
	// C delivers events in publication order. It is closed when the
	// subscription ends; a nil read is never sent.
	C chan telemetry.Event
	// id orders subscribers stably in stats output (guarded by hub.mu).
	id int64
	// dropped counts events this subscriber missed (guarded by hub.mu).
	dropped int64
}

// NewHub returns an empty hub ready for subscribers.
func NewHub() *Hub {
	return &Hub{subs: map[*Subscription]struct{}{}, done: make(chan struct{})}
}

// Publish implements telemetry.Sink: deliver to every subscriber whose
// buffer has room, count a drop for the rest, never block. Safe for
// concurrent use with Subscribe/Unsubscribe/Close; a publish after
// Close is a silent no-op.
func (h *Hub) Publish(e telemetry.Event) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	h.published++
	for s := range h.subs {
		select {
		case s.C <- e:
		default:
			s.dropped++
			h.dropped++
		}
	}
}

// Subscribe registers a subscriber with the given channel buffer
// (minimum 1). On a closed hub it returns an already-closed
// subscription, so stream handlers racing shutdown terminate cleanly.
func (h *Hub) Subscribe(buffer int) *Subscription {
	if buffer < 1 {
		buffer = 1
	}
	s := &Subscription{C: make(chan telemetry.Event, buffer)}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.nextID++
	s.id = h.nextID
	if h.closed {
		close(s.C)
		return s
	}
	h.subs[s] = struct{}{}
	return s
}

// Unsubscribe removes the subscriber and closes its channel. Calling
// it twice, or after Close, is harmless.
func (h *Hub) Unsubscribe(s *Subscription) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if _, ok := h.subs[s]; !ok {
		return
	}
	delete(h.subs, s)
	close(s.C)
}

// Close terminates every subscription and rejects future publishes.
// Idempotent.
func (h *Hub) Close() {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	h.closed = true
	close(h.done)
	for s := range h.subs {
		delete(h.subs, s)
		close(s.C)
	}
}

// Done returns a channel closed when the hub shuts down, for stream
// handlers to select on alongside their request context.
func (h *Hub) Done() <-chan struct{} { return h.done }

// Stats returns the hub's lifetime counters and current subscriber
// count.
func (h *Hub) Stats() (published, dropped int64, subscribers int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.published, h.dropped, len(h.subs)
}

// SubscriberStat is one live subscriber's backpressure picture: how big
// its buffer is, how full it currently sits, and how much it has lost.
type SubscriberStat struct {
	ID       int64 `json:"id"`
	Capacity int   `json:"capacity"`
	Queued   int   `json:"queued"`
	Dropped  int64 `json:"dropped"`
}

// SubscriberStats returns every live subscriber's backpressure stats in
// stable subscription order (the hub's subscriber set is a map, so the
// monotonic id is what makes repeated scrapes comparable).
func (h *Hub) SubscriberStats() []SubscriberStat {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]SubscriberStat, 0, len(h.subs))
	for s := range h.subs {
		out = append(out, SubscriberStat{
			ID:       s.id,
			Capacity: cap(s.C),
			Queued:   len(s.C),
			Dropped:  s.dropped,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}
