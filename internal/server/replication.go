package server

// Primary-side hot-standby replication. The WAL (wal.go) made one
// daemon's mutation history durable; replication streams that same
// history — the spec record plus every journaled mutation, in exactly
// the order they were framed on disk — to follower daemons over
// GET /v1/replicate, so a standby can hold a byte-identical copy of
// the run and take over on promotion without losing anything the
// primary ever acknowledged.
//
// Wire format: the journal format of wal.go, header and CRC frames
// included. The body opens with the spec record, the journal backlog
// from ?from=<index> and a boundary record carrying the primary's
// (tick, records); live mutation records and one boundary per tick
// follow. A mutation's frame is the same bytes as in the primary's WAL,
// so the follower's WAL equals the primary's by construction.
//
// Ordering contract: a mutation record is published only after the
// primary made it durable (WAL fsync) — a follower can never observe
// state the primary could lose — and the boundary for tick T is
// published after the primary flushed its telemetry stream for tick T,
// so a follower that has heard "tick T, records N" and holds N durable
// records may safely resume at boundary T: determinism re-executes
// everything beyond it bit for bit (the PR 8 recovery argument, over
// the network).
//
// Backpressure: the feed is a lossless Hub (hub.go). Each replication
// subscriber gets a bounded buffer, and a follower too slow to drain it
// is disconnected rather than silently skipped — record loss must be
// visible as a dropped connection, which the follower heals by
// reconnecting with ?from=<durable count>. The resume cursor is a
// journal index, so catch-up never re-sends what the follower already
// fsync'd. Records travel the feed unencoded and each handler frames
// them, off the tick lock.

import (
	"fmt"
	"net/http"
	"strconv"
)

// repBuffer bounds one replication subscriber's in-flight records. A
// burst larger than this (a follower stalled mid-catch-up) drops the
// connection; the follower resumes from its durable cursor.
const repBuffer = 256

// repSnapshot is the consistent view a new replication subscriber
// starts from: everything it must send before switching to the live
// feed.
type repSnapshot struct {
	spec    Spec
	backlog []Mutation // journal[from:]
	from    int        // index of backlog[0]
	at      boundary
}

// subscribeReplication atomically snapshots the journal suffix from
// index `from` and registers a live subscriber, under the tick lock so
// no mutation can land between the two — the snapshot plus the feed is
// gapless and duplicate records are detectable by index alone.
func (d *Daemon) subscribeReplication(from int) (repSnapshot, *Subscription[record], error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if from < 0 || from > len(d.journal) {
		return repSnapshot{}, nil, fmt.Errorf("server: replicate from=%d outside journal [0, %d]", from, len(d.journal))
	}
	snap := repSnapshot{
		spec:    d.spec,
		backlog: append([]Mutation(nil), d.journal[from:]...),
		from:    from,
		at:      d.boundary(),
	}
	return snap, d.rep.Subscribe(repBuffer), nil
}

// Freeze stops the daemon at the current tick boundary for a migration
// handoff: the tick driver steps no further and every subsequent
// mutation is refused, so the journal is final. The frozen boundary is
// announced on the replication feed (a boundary with Frozen set), which
// is what lets a follower prove it holds the complete run. Freeze is
// idempotent and returns the frozen tick and journal length.
func (d *Daemon) Freeze() (tick, records int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.frozen = true
	b := d.boundary()
	d.rep.Publish(record{Type: recBoundary, boundary: b})
	return b.Tick, b.Records
}

// Frozen reports whether a handoff has stopped the tick loop.
func (d *Daemon) Frozen() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.frozen
}

// serveReplicate streams the run's durable history — spec, journal
// backlog from ?from, the current boundary, then live records — until
// the client disconnects, the subscriber overflows, or the daemon
// drains. Live records go out in batches, one flush each (see stream).
func serveReplicate(d *Daemon, w http.ResponseWriter, r *http.Request) {
	from := 0
	if q := r.URL.Query().Get("from"); q != "" {
		v, err := strconv.Atoi(q)
		if err != nil || v < 0 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad from %q", q))
			return
		}
		from = v
	}
	snap, sub, err := d.subscribeReplication(from)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	defer d.rep.Unsubscribe(sub)

	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)

	// The opening boundary tells the follower the primary's position
	// even on a quiet run, so resume ticks advance without waiting for
	// the next step.
	opening, err := encodeJournal(snap.spec, snap.from, snap.backlog)
	if err == nil {
		opening, err = appendFrame(opening, record{Type: recBoundary, boundary: snap.at})
	}
	if err == nil {
		_, err = w.Write(opening)
	}
	if err != nil {
		return
	}
	flush(w)
	sent := snap.from + len(snap.backlog)
	// The live frames get a buffer of their own: the opening may hold
	// the whole journal and a megabytes-long spec, which a long-lived
	// stream must not keep alive.
	var buf []byte
	stream(w, r, sub.C, func(rec record) bool {
		if rec.Type == recMut {
			if rec.Index < sent {
				return true // already sent from the backlog snapshot
			}
			if rec.Index > sent {
				// A gap can only mean this subscriber missed records
				// (impossible: overflow closes the channel); drop the
				// connection rather than ship a hole.
				return false
			}
			sent++
		}
		buf, err = appendFrame(buf[:0], rec)
		if err == nil {
			_, err = w.Write(buf)
		}
		return err == nil
	})
}
