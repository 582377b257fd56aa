package server

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"willow/internal/obs"
)

// scrapeMetrics fetches /metrics from a handler and parses the
// exposition, failing the test on transport or conformance errors.
func scrapeMetrics(t *testing.T, ts *httptest.Server) *obs.Scrape {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type %q, want text/plain", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	scrape, err := obs.ParseText(strings.NewReader(string(body)))
	if err != nil {
		t.Fatalf("exposition does not parse: %v\n%s", err, body)
	}
	return scrape
}

// TestMetricsEndpoint pins the /metrics surface: the exposition parses
// back (format conformance on a live daemon), sim-time energy series
// carry the controller's figures exactly, and the wall-clock phase
// histograms saw every tick.
func TestMetricsEndpoint(t *testing.T) {
	d, err := New(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	d.StepN(80)

	ts := httptest.NewServer(NewHandlerOpts(d, HandlerOptions{}))
	defer ts.Close()
	scrape := scrapeMetrics(t, ts)

	if v, ok := scrape.Value("willow_tick"); !ok || v != 80 {
		t.Errorf("willow_tick = %v/%v, want 80", v, ok)
	}
	fleet := d.Result().Energy.Fleet
	if v, ok := scrape.Value("willow_energy_joules_total"); !ok || v != fleet.Joules {
		t.Errorf("energy joules = %v/%v, want %v", v, ok, fleet.Joules)
	}
	if v, ok := scrape.Value("willow_work_per_joule"); !ok || v <= 0 || v >= 1 {
		t.Errorf("work/joule = %v/%v, want in (0, 1)", v, ok)
	}
	// Per-rack series sum to the fleet total.
	var rackSum float64
	for _, s := range scrape.Samples {
		if s.Name == "willow_rack_joules_total" {
			rackSum += s.Value
		}
	}
	if math.Abs(rackSum-fleet.Joules) > 1e-9*fleet.Joules {
		t.Errorf("rack series sum %v != fleet %v", rackSum, fleet.Joules)
	}
	// Wall-clock histograms: one observation per phase per tick, and
	// the family is declared a histogram.
	if typ := scrape.Types["willow_tick_phase_seconds"]; typ != "histogram" {
		t.Errorf("tick phase type = %q, want histogram", typ)
	}
	for _, phase := range []string{"observe", "migrate", "consume"} {
		v, ok := scrape.Value("willow_tick_phase_seconds_count", obs.Label{Name: "phase", Value: phase})
		if !ok || v != 80 {
			t.Errorf("phase %s count = %v/%v, want 80", phase, v, ok)
		}
	}
}

// TestMetricsSubscriberBackpressure exercises the per-subscriber series
// end to end: a tiny-buffer subscription overflows under load and the
// drops show up in /metrics and /v1/stats with stable ids.
func TestMetricsSubscriberBackpressure(t *testing.T) {
	d, err := New(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	sub := d.Hub().Subscribe(1) // overflow immediately; never drained
	defer d.Hub().Unsubscribe(sub)
	d.StepN(20)

	ts := httptest.NewServer(NewHandlerOpts(d, HandlerOptions{}))
	defer ts.Close()
	scrape := scrapeMetrics(t, ts)

	id := obs.Label{Name: "subscriber", Value: "1"}
	if v, ok := scrape.Value("willow_hub_subscriber_capacity", id); !ok || v != 1 {
		t.Errorf("capacity = %v/%v, want 1", v, ok)
	}
	if v, ok := scrape.Value("willow_hub_subscriber_queue", id); !ok || v != 1 {
		t.Errorf("queue = %v/%v, want 1 (full)", v, ok)
	}
	dropped, ok := scrape.Value("willow_hub_subscriber_dropped_total", id)
	if !ok || dropped <= 0 {
		t.Errorf("dropped = %v/%v, want > 0", dropped, ok)
	}

	var stats StatsView
	getJSON(t, ts.URL+"/v1/stats", &stats)
	if len(stats.SubscriberStats) != 1 {
		t.Fatalf("subscriber stats = %+v, want 1 entry", stats.SubscriberStats)
	}
	ss := stats.SubscriberStats[0]
	if ss.ID != 1 || ss.Capacity != 1 || ss.Queued != 1 {
		t.Errorf("subscriber stat = %+v, want id/capacity/queued 1/1/1", ss)
	}
	if float64(ss.Dropped) < dropped {
		t.Errorf("stats dropped %d < metrics dropped %v", ss.Dropped, dropped)
	}
}

// TestEfficiencyEndpoint checks the /v1/efficiency scoreboard: the
// cumulative figures match the controller, the sliding window spans the
// configured width once enough ticks have run, and rack/class rows are
// present and consistent.
func TestEfficiencyEndpoint(t *testing.T) {
	d, err := New(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	d.StepN(EfficiencyWindow + 40)

	ts := httptest.NewServer(NewHandlerOpts(d, HandlerOptions{}))
	defer ts.Close()
	var eff EfficiencyView
	getJSON(t, ts.URL+"/v1/efficiency", &eff)

	if eff.Tick != EfficiencyWindow+40 {
		t.Errorf("tick = %d, want %d", eff.Tick, EfficiencyWindow+40)
	}
	if eff.TickSeconds != 1 {
		t.Errorf("tick seconds = %v, want default 1", eff.TickSeconds)
	}
	fleet := d.Result().Energy.Fleet
	if eff.Cumulative.Joules != fleet.Joules || eff.Cumulative.WorkJoules != fleet.WorkJoules {
		t.Errorf("cumulative %+v does not match controller %+v", eff.Cumulative, fleet)
	}
	if eff.Window.WindowTicks != EfficiencyWindow {
		t.Errorf("window ticks = %d, want %d", eff.Window.WindowTicks, EfficiencyWindow)
	}
	if eff.Window.Joules <= 0 || eff.Window.Joules >= eff.Cumulative.Joules {
		t.Errorf("window joules %v outside (0, cumulative %v)", eff.Window.Joules, eff.Cumulative.Joules)
	}
	if len(eff.Racks) == 0 || len(eff.Classes) == 0 {
		t.Fatalf("missing rack/class rows: %+v", eff)
	}
	var rackJ float64
	for _, r := range eff.Racks {
		rackJ += r.Joules
	}
	if math.Abs(rackJ-eff.Cumulative.Joules) > 1e-9*eff.Cumulative.Joules {
		t.Errorf("rack rows sum %v != cumulative %v", rackJ, eff.Cumulative.Joules)
	}
}

// TestEnergySnapshotRestoreIdentity is the acceptance pin: the full
// energy report of a restored run is byte-identical to one that never
// stopped — mutations, journal replay and all.
func TestEnergySnapshotRestoreIdentity(t *testing.T) {
	spec := testSpec()
	spec.Energy = true
	spec.TickSeconds = 2.5

	run := func(split bool) string {
		d, err := New(spec)
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		d.StepN(60)
		if _, err := d.ScaleDemand(-1, 1.3); err != nil {
			t.Fatal(err)
		}
		d.StepN(40)
		if split {
			// Round-trip through the encoding exactly as a restart would.
			back := wireSnapshot(t, d.Snapshot())
			d.Close()
			if d, err = Restore(back); err != nil {
				t.Fatal(err)
			}
		}
		d.StepN(100)
		return fmt.Sprintf("%+v", d.Result().Energy)
	}

	straight := run(false)
	restored := run(true)
	if straight != restored {
		t.Errorf("energy diverged across snapshot/restore:\n straight %s\n restored %s", straight, restored)
	}
	if !strings.Contains(straight, "TickSeconds:2.5") {
		t.Errorf("report did not carry TickSeconds 2.5: %s", straight)
	}
}
