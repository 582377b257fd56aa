// Package obs is a stdlib-only metrics layer: counters, gauges and
// fixed-bucket histograms behind a registry with a Prometheus
// text-format exposition writer (expo.go) and a conformance parser
// (parse.go).
//
// The package exists to keep two metric families strictly apart:
//
//   - sim-time metrics are deterministic functions of tick state
//     (joules, ticks, drops). They are rendered at scrape time from a
//     state snapshot and never involve the wall clock.
//   - wall-clock metrics (tick-phase latency, Hub publish latency,
//     snapshot write time) are observed from real timers. They exist
//     only on the live-daemon surface and MUST NOT feed back into
//     simulation state or telemetry event streams — the determinism
//     contract depends on it.
//
// All metric types are safe for concurrent use (atomics); the registry
// serializes structural changes and exposition under a mutex.
package obs

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Label is one name=value metric dimension.
type Label struct {
	Name, Value string
}

// LatencyBuckets are the default histogram bounds for sub-second
// latencies, in seconds: 1µs to 1s in a 1-2.5-5 decade ladder.
var LatencyBuckets = []float64{
	1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5,
	1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3,
	1e-2, 2.5e-2, 5e-2, 1e-1, 2.5e-1, 5e-1, 1,
}

// atomicFloat is a float64 updated via CAS on its bit pattern.
type atomicFloat struct{ bits atomic.Uint64 }

func (f *atomicFloat) Add(v float64) {
	for {
		old := f.bits.Load()
		val := math.Float64frombits(old) + v
		if f.bits.CompareAndSwap(old, math.Float64bits(val)) {
			return
		}
	}
}

func (f *atomicFloat) Store(v float64) { f.bits.Store(math.Float64bits(v)) }
func (f *atomicFloat) Load() float64   { return math.Float64frombits(f.bits.Load()) }

// Counter is a monotonically increasing value.
type Counter struct{ v atomicFloat }

// Add increments the counter; negative deltas are ignored (counters
// never go down).
func (c *Counter) Add(v float64) {
	if v > 0 {
		c.v.Add(v)
	}
}

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() float64 { return c.v.Load() }

// Gauge is a value that can go up and down.
type Gauge struct{ v atomicFloat }

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.v.Store(v) }

// Add shifts the gauge value.
func (g *Gauge) Add(v float64) { g.v.Add(v) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return g.v.Load() }

// Histogram counts observations into fixed cumulative buckets.
type Histogram struct {
	bounds []float64 // upper bounds, ascending; +Inf implicit
	counts []atomic.Uint64
	sum    atomicFloat
	count  atomic.Uint64
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	// Linear scan: bucket ladders are short (≈20) and the common case
	// (small latencies) exits early.
	for i, b := range h.bounds {
		if v <= b {
			h.counts[i].Add(1)
			break
		}
	}
	h.sum.Add(v)
	h.count.Add(1)
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return h.sum.Load() }

// snapshot returns cumulative bucket counts (per bound, then total).
func (h *Histogram) snapshot() (cum []uint64, sum float64, count uint64) {
	cum = make([]uint64, len(h.bounds))
	var running uint64
	for i := range h.bounds {
		running += h.counts[i].Load()
		cum[i] = running
	}
	return cum, h.sum.Load(), h.count.Load()
}

// metric is one registered series.
type metric struct {
	labels []Label
	key    string
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// family groups all series sharing one metric name.
type family struct {
	name, help, typ string
	metrics         map[string]*metric
	order           []*metric
}

// Registry holds metric families and writes them as Prometheus text.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	order    []*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

// lookup returns (registering on first use) the series for name and
// labels. r.mu must be held: the callers fill in the series value under
// the same lock, so concurrent first registrations agree on one value.
func (r *Registry) lookup(name, help, typ string, labels []Label) *metric {
	f := r.families[name]
	if f == nil {
		f = &family{name: name, help: help, typ: typ, metrics: map[string]*metric{}}
		r.families[name] = f
		r.order = append(r.order, f)
		sort.Slice(r.order, func(i, j int) bool { return r.order[i].name < r.order[j].name })
	}
	if f.typ != typ {
		panic(fmt.Sprintf("obs: metric %q registered as %s and %s", name, f.typ, typ))
	}
	key := labelKey(labels)
	m := f.metrics[key]
	if m == nil {
		m = &metric{labels: append([]Label(nil), labels...), key: key}
		f.metrics[key] = m
		f.order = append(f.order, m)
		sort.Slice(f.order, func(i, j int) bool { return f.order[i].key < f.order[j].key })
	}
	return m
}

// Counter returns (registering on first use) the named counter. Calling
// again with the same name and labels returns the same counter; a name
// collision across metric types panics (a programming error).
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	m := r.lookup(name, help, "counter", labels)
	if m.c == nil {
		m.c = &Counter{}
	}
	return m.c
}

// Gauge returns (registering on first use) the named gauge.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	m := r.lookup(name, help, "gauge", labels)
	if m.g == nil {
		m.g = &Gauge{}
	}
	return m.g
}

// Histogram returns (registering on first use) the named histogram over
// the given ascending upper bounds (+Inf is implicit). Bounds are fixed
// at first registration; later calls reuse the existing series.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	m := r.lookup(name, help, "histogram", labels)
	if m.h == nil {
		m.h = &Histogram{
			bounds: append([]float64(nil), bounds...),
			counts: make([]atomic.Uint64, len(bounds)),
		}
	}
	return m.h
}

// labelKey renders labels into a canonical ordering key.
func labelKey(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Name < ls[j].Name })
	out := ""
	for _, l := range ls {
		out += l.Name + "=" + l.Value + ","
	}
	return out
}
