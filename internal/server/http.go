package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"willow/internal/telemetry"
)

// HandlerOptions tunes the HTTP layer's overload protection. The zero
// value takes the defaults (generously gated, never unbounded).
type HandlerOptions struct {
	// MaxInflight bounds mutations concurrently holding the admission
	// gate (default DefaultMaxInflight).
	MaxInflight int
	// MaxQueue bounds mutations waiting behind the in-flight ones;
	// arrivals beyond it are shed with 429 (default DefaultMaxQueue).
	MaxQueue int
	// RetryAfter is the backoff hint sent with 429 responses, rounded
	// up to whole seconds (default 1s).
	RetryAfter time.Duration
}

// NewHandlerOpts exposes a daemon over HTTP, the mutation admission
// gate bounded by opts:
//
//	GET  /healthz      readiness view: role, tick, wal health, gate
//	                   saturation, replication subscribers (HealthView)
//	GET  /metrics      Prometheus text exposition (wall-clock latency
//	                   histograms + sim-time energy/hub series)
//	GET  /v1/state     full hierarchy state at the tick boundary
//	GET  /v1/stats     run counters, hub stats, journal length
//	GET  /v1/efficiency energy scoreboard: cumulative + sliding-window
//	                   joules, work/joule, per-rack and per-class rows
//	POST /v1/demand    {"server": -1, "factor": 1.5} scale demand
//	POST /v1/chaos     {"spec": "medium,sensor-light", "seed": 7}
//	                   expand a chaos.ParseSpec spec over the remaining
//	                   horizon and inject it
//	POST /v1/snapshot  the snapshot: the journal bytes (wal.go) a
//	                   snapshot file written now would hold
//	GET  /v1/events    telemetry stream, JSONL (or SSE with
//	                   Accept: text/event-stream); ?kinds=budget,...
//	                   filters; ?buffer=N sizes the subscription;
//	                   ?from=T replays retained history from tick T
//	                   before going live (reconnect resume)
//	GET  /v1/replicate replication stream in the journal format: spec
//	                   record, journal backlog from ?from=<index>, a
//	                   boundary, then live mutations and one boundary
//	                   per tick (hot-standby feed)
//	POST /v1/handoff   freeze the run at the current tick boundary for
//	                   a migration cutover; returns {tick, records}
//	POST /v1/promote   409 on a primary (meaningful only on a follower)
//
// Handlers are safe for unbounded concurrency: reads and mutations
// serialize on the daemon's tick lock (so they always see and land on
// tick boundaries), and the events stream runs entirely off the hub,
// never touching the lock. Mutations additionally pass an admission
// gate (see gate.go): beyond the configured in-flight and queue bounds
// they are shed with 429 + Retry-After instead of piling goroutines on
// the tick mutex.
func NewHandlerOpts(d *Daemon, opts HandlerOptions) http.Handler {
	g := newGate(opts.MaxInflight, opts.MaxQueue, d.metrics.reg)
	retryAfter := opts.RetryAfter
	if retryAfter <= 0 {
		retryAfter = time.Second
	}
	retrySecs := strconv.Itoa(int((retryAfter + time.Second - 1) / time.Second))
	// admit wraps a mutation handler in the gate: shed requests get 429
	// with a Retry-After hint and never touch the daemon.
	admit := func(h http.HandlerFunc) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			if !g.acquire(r.Context()) {
				w.Header().Set("Retry-After", retrySecs)
				writeError(w, http.StatusTooManyRequests,
					fmt.Errorf("mutation admission gate saturated (%d in flight + %d queued); retry after %s",
						cap(g.slots), g.maxQueue, retryAfter))
				return
			}
			defer g.release()
			h(w, r)
		}
	}

	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		gh := g.health()
		writeJSON(w, http.StatusOK, d.Health(&gh))
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		// Render into a buffer first: the exposition is small (a few KB)
		// and this keeps slow scrapers off the daemon's locks entirely.
		var buf bytes.Buffer
		if err := d.WriteMetrics(&buf); err != nil {
			writeError(w, http.StatusInternalServerError, err)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(buf.Bytes())
	})
	mux.HandleFunc("GET /v1/efficiency", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, d.Efficiency())
	})
	mux.HandleFunc("GET /v1/state", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, d.State())
	})
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, d.Stats())
	})
	mux.HandleFunc("POST /v1/demand", admit(func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Server *int    `json:"server"`
			Factor float64 `json:"factor"`
		}
		if err := decodeJSON(r, &req); err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		server := -1
		if req.Server != nil {
			server = *req.Server
		}
		tick, err := d.ScaleDemand(server, req.Factor)
		if err != nil {
			writeError(w, http.StatusUnprocessableEntity, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"tick": tick, "server": server, "factor": req.Factor})
	}))
	mux.HandleFunc("POST /v1/chaos", admit(func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Spec string `json:"spec"`
			Seed uint64 `json:"seed"`
		}
		if err := decodeJSON(r, &req); err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		plan, tick, err := d.InjectChaos(req.Spec, req.Seed)
		if err != nil {
			writeError(w, http.StatusUnprocessableEntity, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{
			"tick":            tick,
			"server_failures": len(plan.ServerFailures),
			"pmu_failures":    len(plan.PMUFailures),
			"loss_windows":    len(plan.LossWindows),
			"sensor_faults":   len(plan.SensorFaults),
		})
	}))
	mux.HandleFunc("POST /v1/snapshot", func(w http.ResponseWriter, r *http.Request) {
		data, err := d.Snapshot().encode()
		if err != nil {
			writeError(w, http.StatusInternalServerError, err)
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(data)
	})
	mux.HandleFunc("GET /v1/replicate", func(w http.ResponseWriter, r *http.Request) {
		serveReplicate(d, w, r)
	})
	mux.HandleFunc("POST /v1/handoff", func(w http.ResponseWriter, r *http.Request) {
		// Freeze the run at the current boundary for a migration cutover:
		// the response names the final (tick, records) pair the follower
		// must reach before promoting.
		tick, records := d.Freeze()
		writeJSON(w, http.StatusOK, map[string]any{"tick": tick, "records": records})
	})
	mux.HandleFunc("POST /v1/promote", func(w http.ResponseWriter, r *http.Request) {
		// A full daemon is already the primary; promotion only means
		// something on a follower (see NewFollowerHandler).
		writeError(w, http.StatusConflict, fmt.Errorf("already primary"))
	})
	mux.HandleFunc("GET /v1/events", func(w http.ResponseWriter, r *http.Request) {
		serveEvents(d, w, r)
	})
	return mux
}

// serveEvents streams telemetry to one subscriber until the client
// disconnects or the hub shuts down. The subscription buffer bounds
// what a slow client costs: overflow drops events for this stream only
// and the tick loop never blocks. With ?from=<tick>, retained history
// from that tick on is replayed before the live feed — the resume path
// a reconnecting subscriber (or follower surviving link loss) uses.
//
// Writes are batched per wake-up: after the event that woke it, the
// handler also writes every event already queued on the subscription,
// then flushes once, so a 1k-server tick's few hundred events cost one
// write syscall rather than one each. The handler never waits for more
// events, so a lone event is flushed at once.
func serveEvents(d *Daemon, w http.ResponseWriter, r *http.Request) {
	keep := telemetry.AllKinds
	if q := r.URL.Query().Get("kinds"); q != "" {
		var err error
		if keep, err = telemetry.ParseKindSet(q); err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
	}
	buffer := 1024
	if q := r.URL.Query().Get("buffer"); q != "" {
		v, err := strconv.Atoi(q)
		if err != nil || v < 1 || v > 1<<20 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad buffer %q", q))
			return
		}
		buffer = v
	}
	from := -1
	if q := r.URL.Query().Get("from"); q != "" {
		v, err := strconv.Atoi(q)
		if err != nil || v < 0 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad from %q", q))
			return
		}
		from = v
	}
	sse := r.Header.Get("Accept") == "text/event-stream"

	var history []telemetry.Event
	var sub *Subscription
	if from >= 0 {
		history, sub = d.SubscribeEvents(from, buffer)
	} else {
		sub = d.Hub().Subscribe(buffer)
	}
	defer d.Hub().Unsubscribe(sub)

	if sse {
		w.Header().Set("Content-Type", "text/event-stream")
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	if flusher != nil {
		flusher.Flush() // commit headers so clients see the stream open
	}

	writeEvent := func(ev telemetry.Event) bool {
		if !keep.Has(ev.Kind) {
			return true
		}
		line, err := telemetry.Encode(ev)
		if err != nil {
			return true
		}
		if sse {
			if _, err := fmt.Fprintf(w, "data: %s\n\n", line); err != nil {
				return false
			}
		} else {
			if _, err := w.Write(append(line, '\n')); err != nil {
				return false
			}
		}
		return true
	}
	flush := func() {
		if flusher != nil {
			flusher.Flush()
		}
	}

	// Replay retained history first (?from=): the subscription was taken
	// atomically with the history snapshot, so the splice is gapless and
	// duplicate-free.
	for _, ev := range history {
		if !writeEvent(ev) {
			return
		}
	}
	if len(history) > 0 {
		flush()
	}

	for {
		select {
		case <-r.Context().Done():
			return
		case <-d.Hub().Done():
			return
		case ev, ok := <-sub.C:
			if !ok {
				return
			}
			if !writeEvent(ev) {
				return
			}
			// This handler is the channel's only receiver, so the n
			// events queued now are there to take, even if the hub
			// closes the channel meanwhile.
			for n := len(sub.C); n > 0; n-- {
				if !writeEvent(<-sub.C) {
					return
				}
			}
			flush()
		}
	}
}

func decodeJSON(r *http.Request, dst any) error {
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return fmt.Errorf("bad request body: %w", err)
	}
	return nil
}

// writeJSON sends v as compact JSON followed by a newline: the bytes of
// json.Marshal(v) plus "\n". The status line is already out when
// encoding runs, so an encode or write error has no one to report to.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}
