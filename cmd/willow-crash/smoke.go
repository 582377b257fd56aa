package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"

	"willow/internal/obs"
	"willow/internal/parallel"
	"willow/internal/server"
)

// The serve mode's load: 1,000 seeded requests from 8 clients, with a
// streaming subscriber. The obs mode's checks wait up to obsWait for
// the daemon to pass obsMinTick.
const (
	serveRequests = 1000
	serveClients  = 8
	serveLoadSeed = 7
	obsMinTick    = 150
	obsWait       = 60 * time.Second
)

// serveSmoke boots willowd with budget leases and a final snapshot,
// hammers it with seeded load while a subscriber streams events, drains
// it with SIGTERM, and requires a complete event file and a snapshot
// that a fast-forward restore runs to completion.
func (h *harness) serveSmoke() error {
	snap := filepath.Join(h.dir, "snap.json")
	p, err := h.spawn(0, "-ticks", fmt.Sprint(h.ticks), "-lease", "8", "-snapshot", snap)
	if err != nil {
		return err
	}
	rep, err := server.RunLoad(h.ctx, server.LoadOptions{
		BaseURL:  p.base,
		Clients:  serveClients,
		Requests: serveRequests,
		Seed:     serveLoadSeed,
		Stream:   true,
	})
	if err != nil {
		return err
	}
	fmt.Print(rep.Table(fmt.Sprintf("load: %d requests x %d clients -> %s", serveRequests, serveClients, p.base)).String())
	if rep.Errors > 0 {
		return fmt.Errorf("%d of %d requests failed", rep.Errors, rep.Requests)
	}
	if rep.Events == 0 {
		return fmt.Errorf("the load's subscriber streamed no events")
	}
	if err := p.stop(); err != nil {
		return fmt.Errorf("SIGTERM drain: %w", err)
	}
	// The drained file is the only fragment: every line must decode and
	// the last must be complete.
	_, lines, err := assemble(h.frags)
	if err != nil {
		return err
	}
	if lines == 0 {
		return fmt.Errorf("drained event file %s is empty", h.frags[0].path)
	}
	if _, err := server.ReadSnapshot(snap); err != nil {
		return err
	}
	restore := exec.CommandContext(h.ctx, h.willowd, "-restore", snap, "-ff", "-addr", "")
	restore.Stderr = os.Stderr
	out, err := restore.Output()
	os.Stdout.Write(out)
	if err != nil {
		return fmt.Errorf("restoring the final snapshot: %w", err)
	}
	if !bytes.Contains(out, []byte("run complete")) {
		return fmt.Errorf("restored run did not complete")
	}
	fmt.Printf("willow-crash OK: serve, %d requests, %d events streamed, %d in the drained JSONL, snapshot restored to completion\n",
		rep.Requests, rep.Events, lines)
	return nil
}

// obsSmoke boots willowd with energy telemetry and pprof on, runs two
// observability checks concurrently — each scrapes /metrics while ticks
// land, so under a -race build the scrape path races the tick loop —
// then drains it with SIGTERM and requires the final snapshot.
func (h *harness) obsSmoke() error {
	snap := filepath.Join(h.dir, "snap.json")
	p, err := h.spawn(0, "-ticks", fmt.Sprint(h.ticks), "-energy", "-pprof", "-snapshot", snap)
	if err != nil {
		return err
	}
	err = parallel.ForEach(h.ctx, 2, 2, func(_ context.Context, i int) error {
		if err := h.checkObs(p.base); err != nil {
			return fmt.Errorf("check %d: %w", i, err)
		}
		return nil
	})
	if err != nil {
		return err
	}
	if err := p.stop(); err != nil {
		return fmt.Errorf("SIGTERM drain: %w", err)
	}
	if _, err := server.ReadSnapshot(snap); err != nil {
		return err
	}
	fmt.Println("willow-crash OK: obs, metrics and efficiency validated by two concurrent checks, snapshot written")
	return nil
}

// checkObs waits for the daemon at base to pass obsMinTick, validates
// that scrape with checkMetrics and the current /v1/efficiency payload
// with checkEfficiency, and prints a summary of the scrape.
func (h *harness) checkObs(base string) error {
	scrape, err := h.waitForTick(base, obsMinTick, obsWait)
	if err != nil {
		return err
	}
	if err := checkMetrics(scrape); err != nil {
		return fmt.Errorf("/metrics: %w", err)
	}
	var eff server.EfficiencyView
	if _, err := h.call(http.MethodGet, base+"/v1/efficiency", nil, &eff); err != nil {
		return err
	}
	if err := checkEfficiency(eff); err != nil {
		return fmt.Errorf("/v1/efficiency: %w", err)
	}
	tick, _ := scrape.Value("willow_tick")
	joules, _ := scrape.Value("willow_energy_joules_total")
	wpj, _ := scrape.Value("willow_work_per_joule")
	fmt.Printf("obs check: tick %.0f, %.0f J consumed, %.4f work/joule, %d samples\n", tick, joules, wpj, len(scrape.Samples))
	return nil
}

// waitForTick polls /metrics until willow_tick reaches minTick, parsing
// every scrape, and gives up after wait.
func (h *harness) waitForTick(base string, minTick int, wait time.Duration) (*obs.Scrape, error) {
	deadline := time.Now().Add(wait)
	for {
		scrape, err := h.scrape(base)
		if err == nil {
			if tick, ok := scrape.Value("willow_tick"); ok && tick >= float64(minTick) {
				return scrape, nil
			}
			err = fmt.Errorf("daemon has not reached tick %d yet", minTick)
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("giving up after %v: %w", wait, err)
		}
		select {
		case <-h.ctx.Done():
			return nil, h.ctx.Err()
		case <-time.After(200 * time.Millisecond):
		}
	}
}

// scrape fetches /metrics and parses it under the strict exposition
// parser.
func (h *harness) scrape(base string) (*obs.Scrape, error) {
	req, err := http.NewRequestWithContext(h.ctx, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := h.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		return nil, fmt.Errorf("GET /metrics: content type %q, want text/plain", ct)
	}
	return obs.ParseText(resp.Body)
}

// checkMetrics validates a parsed /metrics scrape: the required
// families carry their types, the sim-time energy series are positive
// and consistent (work per joule in (0, 1], racks sum to the fleet),
// and the wall-clock histograms have seen real ticks.
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

// checkEfficiency validates a decoded /v1/efficiency scoreboard against
// itself: positive cumulative and window joules, work per joule in
// (0, 1], rack and class rows present, and rack rows summing to the
// cumulative total.
func checkEfficiency(eff server.EfficiencyView) error {
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
