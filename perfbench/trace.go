package main

import (
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// serveTracer wraps the daemon's http.Handler. While enabled it times
// each ServeHTTP call and sums the time by URL path; while disabled it
// only forwards, so the untraced phase pays one atomic load.
type serveTracer struct {
	next http.Handler
	on   atomic.Bool

	mu  sync.Mutex
	sum map[string]time.Duration
	n   map[string]int
}

func newServeTracer(next http.Handler) *serveTracer {
	return &serveTracer{next: next, sum: map[string]time.Duration{}, n: map[string]int{}}
}

func (t *serveTracer) enable(on bool) { t.on.Store(on) }

func (t *serveTracer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !t.on.Load() {
		t.next.ServeHTTP(w, r)
		return
	}
	start := time.Now()
	t.next.ServeHTTP(w, r)
	d := time.Since(start)
	t.mu.Lock()
	t.sum[r.URL.Path] += d
	t.n[r.URL.Path]++
	t.mu.Unlock()
}

// meanMS is the mean serve time of path's requests in milliseconds, 0
// when none were traced.
func (t *serveTracer) meanMS(path string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return ratio(ms(int64(t.sum[path])), float64(t.n[path]))
}

// endToEnd and perLayer list every metric BENCHMARK.json declares, with
// its unit. A --trace 0 run reports all of endToEnd; a --trace 1 run
// reports all of perLayer, 0 for a layer the workload does not
// exercise.
var (
	endToEnd = []metricName{
		{"setup_s", "s"},
		{"rss_mb", "MB"},
		{"latency_p50_ms", "ms"},
		{"latency_tail_ms", "ms"},
		{"ops_per_s", "1/s"},
		{"server_ticks_per_s", "1/s"},
	}
	perLayer = []metricName{
		{"cluster.build_s", "s"},
		{"cluster.step_ms", "ms"},
		{"core.observe_ms", "ms"},
		{"core.allocate_ms", "ms"},
		{"core.consume_ms", "ms"},
		{"core.rest_ms", "ms"},
		{"core.migrations_per_tick", "count"},
		{"core.events_per_tick", "count"},
		{"hub.publish_us", "us"},
		{"hub.dropped", "count"},
		{"hub.event_delay_p50_ms", "ms"},
		{"hub.event_delay_p99_ms", "ms"},
		{"server.step_ms", "ms"},
		{"server.tick_wait_ms", "ms"},
		{"server.serve_ms.demand", "ms"},
		{"server.serve_ms.state", "ms"},
		{"wal.append_ms", "ms"},
		{"wal.bytes_per_ack", "bytes"},
		{"go.alloc_bytes_per_op", "bytes"},
		{"http.transport_ms", "ms"},
		{"gate.shed_ratio", "ratio"},
		{"trace.overhead_ms", "ms"},
	}
)

type metricName struct{ name, unit string }

// setLayerDefaults reports every per-layer metric as 0 so that a traced
// run lists them all; the workload then overwrites what it measured.
func setLayerDefaults(r *result) {
	for _, m := range perLayer {
		r.set(m.name, m.unit, 0)
	}
}
