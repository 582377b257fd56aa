package server

import (
	"net/http"
	"sort"
	"sync"
)

// Hub fans one stream out to any number of subscribers with strictly
// bounded buffering: Publish never blocks, so a slow or stuck
// subscriber (an SSE client on a bad link, a stalled follower) can
// never stall the tick loop. What a full subscriber costs is fixed when
// the hub is built:
//
//   - A lossy hub drops the item for that subscriber only and counts
//     it. The daemon's telemetry hub is lossy; consumers that need the
//     complete stream attach a lossless sink instead (Daemon.SetSink),
//     which publishes under the tick lock.
//   - A lossless hub closes that subscriber's channel and removes it,
//     so loss shows as a dropped connection, never as a silent gap. The
//     replication feed is lossless: a follower heals the disconnect by
//     reconnecting from its durable cursor.
//
// However a channel closes (Unsubscribe, Close or a lossless overflow),
// its subscriber first receives everything it had buffered.
type Hub[T any] struct {
	mu        sync.Mutex
	lossless  bool
	subs      map[*Subscription[T]]struct{}
	nextID    int64
	published int64
	dropped   int64
	closed    bool
}

// Subscription is one subscriber's bounded feed. Receive from C until
// it closes: on Unsubscribe, on Close, or on overflow of a lossless hub.
type Subscription[T any] struct {
	// C delivers items in publication order.
	C chan T
	// id orders subscribers stably in stats output (guarded by hub.mu).
	id int64
	// dropped counts items this subscriber missed (guarded by hub.mu).
	dropped int64
}

// newHub returns an empty hub whose overflow rule is lossless
// (disconnect the full subscriber) or lossy (drop and count).
func newHub[T any](lossless bool) *Hub[T] {
	return &Hub[T]{lossless: lossless, subs: map[*Subscription[T]]struct{}{}}
}

// Publish delivers v to every subscriber whose buffer has room and
// applies the overflow rule to the rest; it never blocks. Safe for
// concurrent use with Subscribe/Unsubscribe/Close; a publish after
// Close is a silent no-op. The daemon publishes under its tick lock, so
// every subscriber sees one order.
func (h *Hub[T]) Publish(v T) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	h.published++
	for s := range h.subs {
		select {
		case s.C <- v:
		default:
			s.dropped++
			h.dropped++
			if h.lossless {
				h.remove(s)
			}
		}
	}
}

// Subscribe registers a subscriber with the given channel buffer
// (minimum 1). On a closed hub it returns an already-closed
// subscription, so stream handlers racing shutdown terminate cleanly.
func (h *Hub[T]) Subscribe(buffer int) *Subscription[T] {
	if buffer < 1 {
		buffer = 1
	}
	s := &Subscription[T]{C: make(chan T, buffer)}
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
// it twice, after Close, or after an overflow disconnect is harmless.
func (h *Hub[T]) Unsubscribe(s *Subscription[T]) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if _, ok := h.subs[s]; ok {
		h.remove(s)
	}
}

// Close terminates every subscription and rejects future publishes.
// Idempotent. A stream handler needs nothing else to notice shutdown:
// its channel closes once drained.
func (h *Hub[T]) Close() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.closed = true
	for s := range h.subs {
		h.remove(s)
	}
}

// remove ends a live subscription. Called with h.mu held.
func (h *Hub[T]) remove(s *Subscription[T]) {
	delete(h.subs, s)
	close(s.C)
}

// Stats returns the hub's lifetime counters and current subscriber
// count. On a lossless hub, dropped counts overflow disconnects.
func (h *Hub[T]) Stats() (published, dropped int64, subscribers int) {
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
func (h *Hub[T]) SubscriberStats() []SubscriberStat {
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

// stream is the live loop of both streaming handlers: it writes what
// ch delivers until the client goes away, ch closes, or write returns
// false. Writes are batched per wake-up: after the item that woke it,
// it writes every item already queued behind it, then flushes once, so
// a backlog costs one write syscall rather than one per item. It never
// waits for more, so a lone item goes out at once.
func stream[T any](w http.ResponseWriter, r *http.Request, ch <-chan T, write func(T) bool) {
	for {
		select {
		case <-r.Context().Done():
			return
		case v, ok := <-ch:
			if !ok || !write(v) {
				return
			}
			// The handler is the channel's only receiver, so the n items
			// queued now are there to take, even if the hub closes the
			// channel meanwhile.
			for n := len(ch); n > 0; n-- {
				if !write(<-ch) {
					return
				}
			}
			flush(w)
		}
	}
}

// flush sends what w has buffered to the client, if w can.
func flush(w http.ResponseWriter) {
	if f, ok := w.(http.Flusher); ok {
		f.Flush()
	}
}
