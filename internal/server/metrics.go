package server

// Daemon observability: the /metrics exposition and the /v1/efficiency
// scoreboard. Two metric families live here and are kept strictly
// apart, mirroring internal/obs's contract:
//
//   - sim-time series (joules, ticks, drops) are deterministic
//     functions of the machine's tick state. They are read under the
//     tick lock into a plain snapshot struct and rendered at scrape
//     time — no long-lived metric objects, no wall clock.
//   - wall-clock series (tick-phase latency, hub publish latency,
//     snapshot write time) come from real timers around the live
//     daemon's hot paths. They never touch simulation state or the
//     telemetry event stream, so golden outputs cannot see them.

import (
	"fmt"
	"io"
	"time"

	"willow/internal/core"
	"willow/internal/obs"
)

// EfficiencyWindow is how many recent ticks the sliding-window
// efficiency figures cover.
const EfficiencyWindow = 120

// daemonMetrics is the per-daemon observability state: the wall-clock
// registry plus the sim-time efficiency ring.
type daemonMetrics struct {
	reg *obs.Registry

	// Wall-clock histograms (live-daemon only; see package comment).
	phaseObserve  *obs.Histogram
	phaseAllocate *obs.Histogram
	phaseMigrate  *obs.Histogram
	phaseConsume  *obs.Histogram
	publish       *obs.Histogram
	snapshot      *obs.Histogram
	walAppend     *obs.Histogram

	// walErrors counts failed WAL appends — the sticky condition that
	// disables mutations — so a diverged daemon is scrapeable, not just
	// greppable.
	walErrors *obs.Counter

	// ring holds cumulative fleet energy totals at each recent tick
	// boundary, newest last; guarded by the daemon's tick lock. samples
	// counts lifetime pushes so the window start is known before the
	// ring fills.
	ring    [EfficiencyWindow + 1]energySample
	samples int
}

// energySample is the cumulative fleet energy at one tick boundary.
type energySample struct {
	tick   int
	totals core.EnergyTotals
}

func newDaemonMetrics() *daemonMetrics {
	reg := obs.NewRegistry()
	phase := func(name string) *obs.Histogram {
		return reg.Histogram("willow_tick_phase_seconds",
			"wall-clock time per controller phase per tick",
			obs.LatencyBuckets, obs.Label{Name: "phase", Value: name})
	}
	return &daemonMetrics{
		reg:           reg,
		phaseObserve:  phase(core.PhaseObserve),
		phaseAllocate: phase(core.PhaseAllocate),
		phaseMigrate:  phase(core.PhaseMigrate),
		phaseConsume:  phase(core.PhaseConsume),
		publish: reg.Histogram("willow_hub_publish_seconds",
			"wall-clock time per hub fan-out publish", obs.LatencyBuckets),
		snapshot: reg.Histogram("willow_snapshot_write_seconds",
			"wall-clock time to serialize and write a snapshot", obs.LatencyBuckets),
		walAppend: reg.Histogram("willow_wal_append_seconds",
			"wall-clock time to frame, append, and fsync one WAL record", obs.LatencyBuckets),
		walErrors: reg.Counter("willow_wal_errors_total",
			"failed WAL appends (mutations are refused once this is nonzero)"),
	}
}

// ObservePhase implements core.PhaseObserver, routing controller phase
// timings into the wall-clock histograms. Called under the tick lock.
func (m *daemonMetrics) ObservePhase(phase string, seconds float64) {
	switch phase {
	case core.PhaseObserve:
		m.phaseObserve.Observe(seconds)
	case core.PhaseAllocate:
		m.phaseAllocate.Observe(seconds)
	case core.PhaseMigrate:
		m.phaseMigrate.Observe(seconds)
	case core.PhaseConsume:
		m.phaseConsume.Observe(seconds)
	}
}

// push records the cumulative fleet totals at a tick boundary. Called
// with the daemon's tick lock held, after each Step.
func (m *daemonMetrics) push(tick int, totals core.EnergyTotals) {
	m.ring[m.samples%len(m.ring)] = energySample{tick: tick, totals: totals}
	m.samples++
}

// window returns the oldest retained sample and the newest one, with
// ok=false before the first push. The window spans up to
// EfficiencyWindow ticks.
func (m *daemonMetrics) windowSpan() (oldest, newest energySample, ok bool) {
	if m.samples == 0 {
		return energySample{}, energySample{}, false
	}
	newest = m.ring[(m.samples-1)%len(m.ring)]
	first := 0
	if m.samples > len(m.ring) {
		first = m.samples - len(m.ring)
	}
	oldest = m.ring[first%len(m.ring)]
	return oldest, newest, true
}

// EnergyFigures is one set of joule totals plus the derived efficiency
// ratio, as served in /v1/efficiency.
type EnergyFigures struct {
	Joules       float64 `json:"joules"`
	WorkJoules   float64 `json:"work_joules"`
	ShedJoules   float64 `json:"shed_joules"`
	HeatJoules   float64 `json:"heat_joules"`
	WorkPerJoule float64 `json:"work_per_joule"`
}

func figures(t core.EnergyTotals) EnergyFigures {
	wpj := t.WorkPerJoule()
	return EnergyFigures{
		Joules:       t.Joules,
		WorkJoules:   t.WorkJoules,
		ShedJoules:   t.ShedJoules,
		HeatJoules:   t.HeatJoules,
		WorkPerJoule: wpj,
	}
}

// WindowFigures are the sliding-window efficiency figures: the joule
// deltas over the last WindowTicks ticks.
type WindowFigures struct {
	WindowTicks int `json:"window_ticks"`
	EnergyFigures
}

// RackEfficiency is one rack-level PMU subtree's cumulative scoreboard
// row.
type RackEfficiency struct {
	Node     int `json:"node"`
	ServerLo int `json:"server_lo"`
	ServerHi int `json:"server_hi"`
	EnergyFigures
}

// ClassEfficiency is one application class's served-work row.
type ClassEfficiency struct {
	Class        string  `json:"class"`
	ServedJoules float64 `json:"served_joules"`
}

// EfficiencyView is the /v1/efficiency payload: the energy scoreboard
// at the current tick boundary.
type EfficiencyView struct {
	Tick        int     `json:"tick"`
	Ticks       int     `json:"ticks"`
	TickSeconds float64 `json:"tick_seconds"`

	Cumulative EnergyFigures `json:"cumulative"`
	Window     WindowFigures `json:"window"`

	Racks   []RackEfficiency  `json:"racks"`
	Classes []ClassEfficiency `json:"classes"`
}

// Efficiency builds the energy scoreboard at the current tick boundary.
func (d *Daemon) Efficiency() EfficiencyView {
	d.mu.Lock()
	ctrl := d.m.Controller()
	view := EfficiencyView{
		Tick:        d.m.NextTick(),
		Ticks:       d.m.Config().Ticks,
		TickSeconds: ctrl.Cfg.TickSeconds,
		Cumulative:  figures(ctrl.EnergyTotals()),
	}
	racks := ctrl.RackEnergy()
	classes := ctrl.ClassEnergy()
	oldest, newest, haveWindow := d.metrics.windowSpan()
	d.mu.Unlock()

	if haveWindow {
		delta := newest.totals.Sub(oldest.totals)
		view.Window = WindowFigures{
			WindowTicks:   newest.tick - oldest.tick,
			EnergyFigures: figures(delta),
		}
	}
	view.Racks = make([]RackEfficiency, len(racks))
	for i, r := range racks {
		view.Racks[i] = RackEfficiency{
			Node: r.Node, ServerLo: r.Lo, ServerHi: r.Hi,
			EnergyFigures: figures(r.Totals),
		}
	}
	view.Classes = make([]ClassEfficiency, len(classes))
	for i, c := range classes {
		view.Classes[i] = ClassEfficiency{Class: c.Class, ServedJoules: c.ServedJoules}
	}
	return view
}

// metricsSnapshot is the sim-time state copied under the tick lock for
// one /metrics scrape, so the exposition never renders mid-tick state
// and the lock is held only for the copy, not the write.
type metricsSnapshot struct {
	tick, ticks int
	done        bool
	tickSeconds float64
	fleet       core.EnergyTotals
	racks       []core.RackEnergy
	classes     []core.ClassEnergy
	journalLen  int
}

// WriteMetrics writes the full Prometheus exposition: wall-clock
// families from the registry, then sim-time series rendered from one
// consistent state snapshot, then hub backpressure gauges.
func (d *Daemon) WriteMetrics(w io.Writer) error {
	d.mu.Lock()
	ctrl := d.m.Controller()
	snap := metricsSnapshot{
		tick:        d.m.NextTick(),
		ticks:       d.m.Config().Ticks,
		done:        d.m.Done(),
		tickSeconds: ctrl.Cfg.TickSeconds,
		fleet:       ctrl.EnergyTotals(),
		racks:       ctrl.RackEnergy(),
		classes:     ctrl.ClassEnergy(),
		journalLen:  len(d.journal),
	}
	started := d.started
	d.mu.Unlock()

	if err := d.metrics.reg.WriteText(w); err != nil {
		return err
	}

	e := obs.NewEncoder(w)

	e.Family("willow_uptime_seconds", "gauge", "wall-clock seconds since daemon start")
	e.Sample("willow_uptime_seconds", nil, time.Since(started).Seconds())

	e.Family("willow_tick", "gauge", "current tick boundary")
	e.Sample("willow_tick", nil, float64(snap.tick))
	e.Family("willow_ticks_configured", "gauge", "total ticks in the run")
	e.Sample("willow_ticks_configured", nil, float64(snap.ticks))
	e.Family("willow_run_done", "gauge", "1 when every configured tick has run")
	e.Sample("willow_run_done", nil, b2f(snap.done))
	e.Family("willow_tick_sim_seconds", "gauge", "simulated seconds one tick models")
	e.Sample("willow_tick_sim_seconds", nil, snap.tickSeconds)
	e.Family("willow_journal_entries", "gauge", "journaled live mutations")
	e.Sample("willow_journal_entries", nil, float64(snap.journalLen))

	e.Family("willow_energy_joules_total", "counter", "cumulative fleet energy consumed")
	e.Sample("willow_energy_joules_total", nil, snap.fleet.Joules)
	e.Family("willow_work_joules_total", "counter", "cumulative useful work delivered")
	e.Sample("willow_work_joules_total", nil, snap.fleet.WorkJoules)
	e.Family("willow_shed_joules_total", "counter", "cumulative demand shed")
	e.Sample("willow_shed_joules_total", nil, snap.fleet.ShedJoules)
	e.Family("willow_heat_joules_total", "counter", "cumulative heat dissipated to ambient")
	e.Sample("willow_heat_joules_total", nil, snap.fleet.HeatJoules)
	e.Family("willow_work_per_joule", "gauge", "cumulative useful work per joule consumed")
	e.Sample("willow_work_per_joule", nil, snap.fleet.WorkPerJoule())

	e.Family("willow_rack_joules_total", "counter", "cumulative energy per rack-level PMU subtree")
	for _, r := range snap.racks {
		e.Sample("willow_rack_joules_total",
			[]obs.Label{{Name: "rack", Value: fmt.Sprint(r.Node)}}, r.Totals.Joules)
	}
	e.Family("willow_rack_work_joules_total", "counter", "cumulative useful work per rack-level PMU subtree")
	for _, r := range snap.racks {
		e.Sample("willow_rack_work_joules_total",
			[]obs.Label{{Name: "rack", Value: fmt.Sprint(r.Node)}}, r.Totals.WorkJoules)
	}
	e.Family("willow_class_served_joules_total", "counter", "cumulative served work per application class")
	for _, c := range snap.classes {
		e.Sample("willow_class_served_joules_total",
			[]obs.Label{{Name: "class", Value: c.Class}}, c.ServedJoules)
	}

	published, dropped, subscribers := d.hub.Stats()
	e.Family("willow_hub_published_total", "counter", "events offered to the fan-out hub")
	e.Sample("willow_hub_published_total", nil, float64(published))
	e.Family("willow_hub_dropped_total", "counter", "events dropped across all subscribers")
	e.Sample("willow_hub_dropped_total", nil, float64(dropped))
	e.Family("willow_hub_subscribers", "gauge", "live event subscribers")
	e.Sample("willow_hub_subscribers", nil, float64(subscribers))

	e.Family("willow_replication_subscribers", "gauge", "connected /v1/replicate followers")
	_, _, followers := d.rep.Stats()
	e.Sample("willow_replication_subscribers", nil, float64(followers))

	subs := d.hub.SubscriberStats()
	e.Family("willow_hub_subscriber_queue", "gauge", "buffered events per subscriber")
	for _, s := range subs {
		e.Sample("willow_hub_subscriber_queue", subLabel(s.ID), float64(s.Queued))
	}
	e.Family("willow_hub_subscriber_capacity", "gauge", "buffer capacity per subscriber")
	for _, s := range subs {
		e.Sample("willow_hub_subscriber_capacity", subLabel(s.ID), float64(s.Capacity))
	}
	e.Family("willow_hub_subscriber_dropped_total", "counter", "events dropped per subscriber")
	for _, s := range subs {
		e.Sample("willow_hub_subscriber_dropped_total", subLabel(s.ID), float64(s.Dropped))
	}
	return e.Err()
}

func subLabel(id int64) []obs.Label {
	return []obs.Label{{Name: "subscriber", Value: fmt.Sprint(id)}}
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
