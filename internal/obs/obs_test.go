package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("willow_events_total", "events", Label{"kind", "migration"})
	c.Inc()
	c.Inc()
	if got := c.Value(); got != 2 {
		t.Errorf("counter = %v, want 2", got)
	}
	if again := r.Counter("willow_events_total", "events", Label{"kind", "migration"}); again != c {
		t.Error("re-registration returned a different counter")
	}

	g := r.Gauge("willow_subscribers", "subs")
	g.Set(4)
	g.Set(3)
	if got := g.Value(); got != 3 {
		t.Errorf("gauge = %v, want 3", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("willow_latency_seconds", "lat", []float64{0.01, 0.1, 1})
	for _, v := range []float64{0.005, 0.05, 0.5, 5} {
		h.Observe(v)
	}
	cum, sum, count := h.snapshot()
	if count != 4 {
		t.Errorf("count = %d, want 4", count)
	}
	if math.Abs(sum-5.555) > 1e-12 {
		t.Errorf("sum = %v, want 5.555", sum)
	}
	for i, want := range []uint64{1, 2, 3} {
		if cum[i] != want {
			t.Errorf("cumulative bucket %d = %d, want %d", i, cum[i], want)
		}
	}
}

func TestTypeCollisionPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("willow_x", "x")
	defer func() {
		if recover() == nil {
			t.Error("registering willow_x as gauge after counter did not panic")
		}
	}()
	r.Gauge("willow_x", "x")
}

// TestExpositionRoundTrip is the conformance pin: everything WriteText
// emits parses back with the same families, types, labels and values —
// including histograms, escaped label values and non-finite floats.
func TestExpositionRoundTrip(t *testing.T) {
	r := NewRegistry()
	for i := 0; i < 17; i++ {
		r.Counter("willow_hub_dropped_total", "dropped events", Label{"subscriber", "3"}).Inc()
	}
	r.Counter("willow_hub_dropped_total", "dropped events", Label{"subscriber", "12"}).Inc()
	r.Gauge("willow_joules", "energy").Set(123456.789)
	r.Gauge("willow_weird", "escapes", Label{"path", `a\b"c` + "\nd"}).Set(math.Inf(1))
	h := r.Histogram("willow_tick_phase_seconds", "phase latency", LatencyBuckets, Label{"phase", "observe"})
	h.Observe(3e-6)
	h.Observe(0.002)
	h.Observe(42) // beyond the last bound: +Inf bucket only

	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()

	scrape, err := ParseText(strings.NewReader(text))
	if err != nil {
		t.Fatalf("parse-back failed: %v\nexposition:\n%s", err, text)
	}

	if typ := scrape.Types["willow_hub_dropped_total"]; typ != "counter" {
		t.Errorf("type = %q, want counter", typ)
	}
	if typ := scrape.Types["willow_tick_phase_seconds"]; typ != "histogram" {
		t.Errorf("type = %q, want histogram", typ)
	}

	if v, ok := scrape.Value("willow_hub_dropped_total", Label{"subscriber", "3"}); !ok || v != 17 {
		t.Errorf("dropped{subscriber=3} = %v/%v, want 17", v, ok)
	}
	if v, ok := scrape.Value("willow_joules"); !ok || v != 123456.789 {
		t.Errorf("joules = %v/%v, want 123456.789", v, ok)
	}
	if v, ok := scrape.Value("willow_weird", Label{"path", `a\b"c` + "\nd"}); !ok || !math.IsInf(v, 1) {
		t.Errorf("escaped label round-trip = %v/%v, want +Inf", v, ok)
	}

	// Histogram series: cumulative buckets, sum, count, +Inf.
	if v, ok := scrape.Value("willow_tick_phase_seconds_count", Label{"phase", "observe"}); !ok || v != 3 {
		t.Errorf("histogram count = %v/%v, want 3", v, ok)
	}
	if v, ok := scrape.Value("willow_tick_phase_seconds_bucket", Label{"phase", "observe"}, Label{"le", "+Inf"}); !ok || v != 3 {
		t.Errorf("+Inf bucket = %v/%v, want 3", v, ok)
	}
	if v, ok := scrape.Value("willow_tick_phase_seconds_bucket", Label{"phase", "observe"}, Label{"le", "0.005"}); !ok || v != 2 {
		t.Errorf("le=0.005 bucket = %v/%v, want 2", v, ok)
	}

	// A second write is byte-identical: exposition is deterministic.
	var sb2 strings.Builder
	if err := r.WriteText(&sb2); err != nil {
		t.Fatal(err)
	}
	if sb2.String() != text {
		t.Error("second WriteText differs from first")
	}
}

func TestParseRejectsMalformed(t *testing.T) {
	for _, bad := range []string{
		`willow x 1`,                       // space in name
		`willow_x{le"0.1"} 1`,              // missing =
		`willow_x{le="0.1} 1`,              // unterminated quote
		`willow_x{le="0.1"} one`,           // non-float value
		"# TYPE willow_x wat",              // bad type
		"# TYPE willow_x counter extra ok", // malformed TYPE
		`willow_x`,                         // no value
	} {
		if _, err := ParseText(strings.NewReader(bad)); err == nil {
			t.Errorf("ParseText accepted %q", bad)
		}
	}
}

func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("willow_total", "t")
	h := r.Histogram("willow_h", "h", []float64{1})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
				h.Observe(0.5)
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Errorf("counter = %v, want 8000", c.Value())
	}
	if _, _, n := h.snapshot(); n != 8000 {
		t.Errorf("histogram count = %d, want 8000", n)
	}
}

// TestConcurrentRegistration: goroutines registering the same series for
// the first time at once (a promoted standby builds its handler on the
// HTTP goroutine while willowd's main goroutine builds another) must all
// receive one series, with no write lost to a duplicate.
func TestConcurrentRegistration(t *testing.T) {
	r := NewRegistry()
	const workers = 8
	var wg sync.WaitGroup
	gauges := make([]*Gauge, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r.Counter("willow_race_total", "c").Inc()
			r.Histogram("willow_race_h", "h", []float64{1}).Observe(0.5)
			gauges[w] = r.Gauge("willow_race_g", "g")
			gauges[w].Set(1)
		}(w)
	}
	wg.Wait()
	if got := r.Counter("willow_race_total", "c").Value(); got != workers {
		t.Errorf("counter = %v, want %d", got, workers)
	}
	if _, _, got := r.Histogram("willow_race_h", "h", []float64{1}).snapshot(); got != workers {
		t.Errorf("histogram count = %d, want %d", got, workers)
	}
	for w, g := range gauges {
		if g != gauges[0] {
			t.Fatalf("worker %d got a different gauge series", w)
		}
	}
}
