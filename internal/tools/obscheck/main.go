// Command obscheck validates a live willowd observability surface —
// the scrape-side half of `make obs-smoke`. It polls /metrics until
// the daemon has ticked past -min-tick, then asserts:
//
//   - the exposition parses under the strict internal/obs conformance
//     parser (names, label quoting, TYPE lines, float syntax);
//   - the required families are present with the expected types, the
//     wall-clock histograms have observations, and the sim-time energy
//     series carry non-trivial, internally consistent figures (rack
//     series sum to the fleet total);
//   - /v1/efficiency decodes and its scoreboard agrees with itself
//     (cumulative joules positive, rack rows sum to the fleet,
//     work/joule in (0, 1]).
//
// A plain net/http + stdlib binary so smoke scripts need no curl/jq.
//
//	obscheck -addr http://127.0.0.1:8080 -min-tick 50
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"strings"
	"time"

	"willow/internal/obs"
)

func main() {
	var (
		addr    = flag.String("addr", "http://127.0.0.1:8080", "willowd base URL")
		minTick = flag.Int("min-tick", 20, "wait until the daemon has run at least this many ticks")
		wait    = flag.Duration("wait", 30*time.Second, "how long to wait for -min-tick before giving up")
	)
	flag.Parse()

	scrape, err := waitForTick(*addr, *minTick, *wait)
	if err != nil {
		fatal(err)
	}
	if err := checkMetrics(scrape); err != nil {
		fatal(fmt.Errorf("/metrics: %w", err))
	}
	if err := checkEfficiency(*addr); err != nil {
		fatal(fmt.Errorf("/v1/efficiency: %w", err))
	}
	tick, _ := scrape.Value("willow_tick")
	joules, _ := scrape.Value("willow_energy_joules_total")
	wpj, _ := scrape.Value("willow_work_per_joule")
	fmt.Printf("obscheck: OK — tick %.0f, %.0f J consumed, %.4f work/joule, %d samples\n",
		tick, joules, wpj, len(scrape.Samples))
}

// waitForTick polls /metrics until willow_tick reaches minTick,
// re-validating parseability on every poll.
func waitForTick(addr string, minTick int, wait time.Duration) (*obs.Scrape, error) {
	deadline := time.Now().Add(wait)
	for {
		scrape, err := fetchMetrics(addr)
		if err == nil {
			if tick, ok := scrape.Value("willow_tick"); ok && tick >= float64(minTick) {
				return scrape, nil
			}
			err = fmt.Errorf("daemon has not reached tick %d yet", minTick)
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("giving up after %v: %w", wait, err)
		}
		time.Sleep(200 * time.Millisecond)
	}
}

func fetchMetrics(addr string) (*obs.Scrape, error) {
	resp, err := http.Get(addr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		return nil, fmt.Errorf("content type %q, want text/plain", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	return obs.ParseText(strings.NewReader(string(body)))
}

func checkMetrics(s *obs.Scrape) error {
	for name, typ := range map[string]string{
		"willow_tick":                   "gauge",
		"willow_uptime_seconds":         "gauge",
		"willow_energy_joules_total":    "counter",
		"willow_work_joules_total":      "counter",
		"willow_heat_joules_total":      "counter",
		"willow_shed_joules_total":      "counter",
		"willow_work_per_joule":         "gauge",
		"willow_rack_joules_total":      "counter",
		"willow_hub_published_total":    "counter",
		"willow_hub_subscribers":        "gauge",
		"willow_tick_phase_seconds":     "histogram",
		"willow_hub_publish_seconds":    "histogram",
		"willow_snapshot_write_seconds": "histogram",
	} {
		if got := s.Types[name]; got != typ {
			return fmt.Errorf("family %s declared %q, want %q", name, got, typ)
		}
	}

	joules, ok := s.Value("willow_energy_joules_total")
	if !ok || joules <= 0 {
		return fmt.Errorf("energy joules = %v/%v, want > 0", joules, ok)
	}
	if wpj, ok := s.Value("willow_work_per_joule"); !ok || wpj <= 0 || wpj > 1 {
		return fmt.Errorf("work/joule = %v/%v, want in (0, 1]", wpj, ok)
	}
	var rackSum float64
	racks := 0
	for _, sm := range s.Samples {
		if sm.Name == "willow_rack_joules_total" {
			rackSum += sm.Value
			racks++
		}
	}
	if racks == 0 {
		return fmt.Errorf("no willow_rack_joules_total series")
	}
	if math.Abs(rackSum-joules) > 1e-6*joules {
		return fmt.Errorf("rack joules sum %v != fleet %v", rackSum, joules)
	}

	// The live daemon's wall-clock histograms must be seeing real ticks.
	for _, phase := range []string{"observe", "allocate", "migrate", "consume"} {
		n, ok := s.Value("willow_tick_phase_seconds_count", obs.Label{Name: "phase", Value: phase})
		if !ok || n <= 0 {
			return fmt.Errorf("phase %q histogram count = %v/%v, want > 0", phase, n, ok)
		}
	}
	if n, ok := s.Value("willow_hub_publish_seconds_count"); !ok || n <= 0 {
		return fmt.Errorf("hub publish histogram count = %v/%v, want > 0", n, ok)
	}
	return nil
}

// efficiencyView mirrors the /v1/efficiency payload shape (the fields
// the check needs; see server.EfficiencyView).
type efficiencyView struct {
	Tick        int     `json:"tick"`
	TickSeconds float64 `json:"tick_seconds"`
	Cumulative  struct {
		Joules       float64 `json:"joules"`
		WorkJoules   float64 `json:"work_joules"`
		WorkPerJoule float64 `json:"work_per_joule"`
	} `json:"cumulative"`
	Window struct {
		WindowTicks int     `json:"window_ticks"`
		Joules      float64 `json:"joules"`
	} `json:"window"`
	Racks []struct {
		Node   int     `json:"node"`
		Joules float64 `json:"joules"`
	} `json:"racks"`
	Classes []struct {
		Class        string  `json:"class"`
		ServedJoules float64 `json:"served_joules"`
	} `json:"classes"`
}

func checkEfficiency(addr string) error {
	resp, err := http.Get(addr + "/v1/efficiency")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %s", resp.Status)
	}
	var eff efficiencyView
	if err := json.NewDecoder(resp.Body).Decode(&eff); err != nil {
		return err
	}
	if eff.Tick <= 0 || eff.TickSeconds <= 0 {
		return fmt.Errorf("tick %d / tick_seconds %v, want > 0", eff.Tick, eff.TickSeconds)
	}
	if eff.Cumulative.Joules <= 0 {
		return fmt.Errorf("cumulative joules %v, want > 0", eff.Cumulative.Joules)
	}
	if wpj := eff.Cumulative.WorkPerJoule; wpj <= 0 || wpj > 1 {
		return fmt.Errorf("work/joule %v, want in (0, 1]", wpj)
	}
	if eff.Window.WindowTicks <= 0 || eff.Window.Joules <= 0 {
		return fmt.Errorf("window %d ticks / %v J, want > 0", eff.Window.WindowTicks, eff.Window.Joules)
	}
	if len(eff.Racks) == 0 || len(eff.Classes) == 0 {
		return fmt.Errorf("missing rack (%d) or class (%d) rows", len(eff.Racks), len(eff.Classes))
	}
	var rackSum float64
	for _, r := range eff.Racks {
		rackSum += r.Joules
	}
	if math.Abs(rackSum-eff.Cumulative.Joules) > 1e-6*eff.Cumulative.Joules {
		return fmt.Errorf("rack rows sum %v != cumulative %v", rackSum, eff.Cumulative.Joules)
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "obscheck:", err)
	os.Exit(1)
}
