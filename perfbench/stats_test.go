package main

import (
	"encoding/json"
	"math"
	"os"
	"slices"
	"strings"
	"testing"

	"willow/internal/obs"
)

func TestQuantileRawSamples(t *testing.T) {
	var samples []float64
	for i := 100; i >= 1; i-- { // unsorted on purpose
		samples = append(samples, float64(i))
	}
	for _, tc := range []struct{ q, want float64 }{
		{0, 1}, {0.5, 50.5}, {0.95, 95.05}, {0.99, 99.01}, {1, 100},
	} {
		if got := quantile(samples, tc.q); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("quantile(1..100, %v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if samples[0] != 100 {
		t.Error("quantile reordered its input")
	}
	if got := median([]float64{7}); got != 7 {
		t.Errorf("median of one sample = %v", got)
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of no samples is not NaN")
	}
	// A bucketed histogram would report a bucket bound; raw samples give
	// the value itself.
	if got := median([]float64{0.41, 0.42, 0.43}); got != 0.42 {
		t.Errorf("median = %v, want 0.42", got)
	}
}

func TestFleetSeeds(t *testing.T) {
	if got := fleetSeed(42, 0, 1); got != 42 {
		t.Errorf("single fleet seeded %d, want the run's seed 42", got)
	}
	seen := map[uint64]bool{}
	for seed := uint64(1); seed <= 3; seed++ {
		for i := range 8 {
			s := fleetSeed(seed, i, 8)
			if seen[s] {
				t.Fatalf("seed %d fleet %d repeats fleet seed %d", seed, i, s)
			}
			seen[s] = true
		}
	}
}

func TestOverlapAttributesTickWait(t *testing.T) {
	steps := []interval{{0, 10}, {20, 30}, {40, 50}}
	for _, tc := range []struct {
		req  interval
		want int64
	}{
		{interval{5, 25}, 10},   // tail of one step, head of the next
		{interval{10, 20}, 0},   // exactly between steps
		{interval{22, 24}, 2},   // inside a step
		{interval{-5, 100}, 30}, // spans every step
		{interval{50, 60}, 0},   // after the last step
		{interval{45, 45}, 0},   // empty request
	} {
		if got := overlap(steps, tc.req); got != tc.want {
			t.Errorf("overlap(%v) = %d, want %d", tc.req, got, tc.want)
		}
	}
	if got := overlap(nil, interval{0, 10}); got != 0 {
		t.Errorf("no steps: %d", got)
	}
}

func TestCycleAlignedWindows(t *testing.T) {
	if got := lcm(4, 7, 32); got != 224 {
		t.Errorf("lcm(4,7,32) = %d", got)
	}
	for _, tc := range []struct {
		w            fleetWorkload
		window, pass int
	}{
		{steady100k, 28, 4},
		{deficit8x1k, 224, 32},
	} {
		cfg, err := tc.w.config(1)
		if err != nil {
			t.Fatal(err)
		}
		window, pass := cycleTicks(cfg, 4, 7)
		if window != tc.window || pass != tc.pass {
			t.Errorf("%s: window %d pass %d, want %d and %d", tc.w.name, window, pass, tc.window, tc.pass)
		}
		if window%4 != 0 || window%7 != 0 || window%pass != 0 {
			t.Errorf("%s: window %d is not whole η1/η2 cycles and passes", tc.w.name, window)
		}
		if tc.w.warmup%pass != 0 {
			t.Errorf("%s: warm-up of %d ticks does not end on a pass boundary", tc.w.name, tc.w.warmup)
		}
	}
}

func TestHistogramFromScrape(t *testing.T) {
	parse := func(text string) *obs.Scrape {
		t.Helper()
		s, err := obs.ParseText(strings.NewReader(text))
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	before := parse(`# TYPE willow_tick_phase_seconds histogram
willow_tick_phase_seconds_bucket{phase="observe",le="+Inf"} 4
willow_tick_phase_seconds_sum{phase="observe"} 0.004
willow_tick_phase_seconds_count{phase="observe"} 4
willow_tick_phase_seconds_sum{phase="consume"} 1
willow_tick_phase_seconds_count{phase="consume"} 4
# TYPE willow_tick gauge
willow_tick 100
`)
	after := parse(`# TYPE willow_tick_phase_seconds histogram
willow_tick_phase_seconds_bucket{phase="observe",le="+Inf"} 10
willow_tick_phase_seconds_sum{phase="observe"} 0.016
willow_tick_phase_seconds_count{phase="observe"} 10
willow_tick_phase_seconds_sum{phase="consume"} 3
willow_tick_phase_seconds_count{phase="consume"} 10
# TYPE willow_tick gauge
willow_tick 106
# TYPE willow_wal_append_seconds histogram
willow_wal_append_seconds_sum 0.5
willow_wal_append_seconds_count 5
`)
	sum, count := histDelta(before, after, "willow_tick_phase_seconds", obs.Label{Name: "phase", Value: "observe"})
	if math.Abs(sum-0.012) > 1e-12 || count != 6 {
		t.Errorf("observe delta: sum %v count %v, want 0.012 and 6", sum, count)
	}
	if sum, count := histDelta(before, after, "willow_wal_append_seconds"); sum != 0.5 || count != 5 {
		t.Errorf("family new in the second scrape: sum %v count %v", sum, count)
	}
	if sum, count := histDelta(before, after, "willow_hub_publish_seconds"); sum != 0 || count != 0 {
		t.Errorf("absent family: sum %v count %v", sum, count)
	}
	if got := counterDelta(before, after, "willow_tick"); got != 6 {
		t.Errorf("tick delta %v, want 6", got)
	}
}

func TestLivePhaseSamples(t *testing.T) {
	const sec = int64(1e9)
	ph := livePhase{from: 10 * sec, to: 12 * sec}
	logs := []*clientLog{{ops: []op{
		{interval{9 * sec, 9*sec + 1e6}, true},          // before the phase
		{interval{10 * sec, 10*sec + 2e6}, true},        // in
		{interval{10*sec + 5, 10*sec + 5 + 4e6}, false}, // failed
		{interval{11 * sec, 11*sec + 3e6}, true},        // in
		{interval{12 * sec, 12*sec + 1e6}, true},        // starts as the phase ends
	}}}
	lat, perS := ph.samples(logs)
	if !slices.Equal(lat, []float64{2, 3}) || perS != 1 {
		t.Errorf("samples %v at %v/s, want [2 3] at 1/s", lat, perS)
	}
}

func TestMatchEvents(t *testing.T) {
	pacer := &tickPacer{
		steps:     []interval{{0, 10}, {20, 30}, {40, 50}},
		published: []int64{102, 105, 107}, // 2, 3 and 2 events
	}
	all := func(int64) bool { return true }
	sub := &subscriber{first: 7, counts: []int{2, 3, 2}, last: []int64{12e6, 33e6, 51e6}}
	delays, gaps := matchEvents(sub, pacer, 100, all)
	if len(gaps) != 0 || len(delays) != 3 {
		t.Fatalf("complete stream: delays %v, gaps %v", delays, gaps)
	}
	if delays, _ := matchEvents(sub, pacer, 100, func(t int64) bool { return t >= 20 }); len(delays) != 2 {
		t.Errorf("phase filter kept %d delays, want 2", len(delays))
	}
	// The subscriber stops before the last tick's events arrive.
	sub = &subscriber{first: 7, counts: []int{2, 3}, last: []int64{12, 33}}
	delays, gaps = matchEvents(sub, pacer, 100, all)
	if len(delays) != 2 || len(gaps) != 1 || !strings.Contains(gaps[0], "tick 9") {
		t.Errorf("early stop: delays %v, gaps %v", delays, gaps)
	}
	// A short count and events for a tick the pacer never stepped.
	sub = &subscriber{first: 7, counts: []int{2, 1, 2, 4}, last: []int64{12, 33, 51, 60}}
	if _, gaps = matchEvents(sub, pacer, 100, all); len(gaps) != 2 {
		t.Errorf("gap and overrun: %v", gaps)
	}
}

func TestEventTick(t *testing.T) {
	for _, tc := range []struct {
		line string
		want int
	}{
		{`{"t":1234,"k":"budget","node":3}` + "\n", 1234},
		{`{"k":"budget","t":77}`, 77}, // field order the fast path does not expect
	} {
		got, err := eventTick([]byte(tc.line))
		if err != nil || got != tc.want {
			t.Errorf("eventTick(%q) = %d, %v; want %d", tc.line, got, err, tc.want)
		}
	}
	if _, err := eventTick([]byte("not json\n")); err == nil {
		t.Error("malformed event accepted")
	}
}

// TestMetricListsMatchBenchmarkJSON keeps the metric tables the runs
// report in step with the declared benchmark.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var decl struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &decl); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricName) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the benchmark reports %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: declared %s (%s), reported %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", decl.EndToEnd, endToEnd)
	check("per_layer", decl.PerLayer, perLayer)
}
