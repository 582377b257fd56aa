package main

import (
	"fmt"
	"math"
	"runtime"
	"strconv"
	"strings"
	"time"

	"willow/internal/cluster"
	"willow/internal/power"
	"willow/internal/server"
	"willow/internal/telemetry"
)

// fleetWorkload is one or more offline fleets stepped tick by tick
// through cluster.Machine, with no daemon in the way.
type fleetWorkload struct {
	name   string
	config func(seed uint64) (cluster.Config, error)
	// fleets is how many independent fleets a run steps in turn, each
	// with its own seed drawn from --seed.
	fleets int
	// warmup is the ticks set-up fast-forwards before measuring, enough
	// to carry the run past its start-up transient. It is a whole number
	// of passes, so measured passes start where the supply trace does.
	warmup int
	// roundSeconds is about how long one measured round (one window of
	// every fleet) takes on a 2-core host. A run measures
	// budget/roundSeconds rounds, a number fixed by --seconds alone: the
	// deficit fleets migrate less with every pass, so a round count that
	// followed the host's speed would change the work measured.
	roundSeconds float64
	// passOp makes one pass of the supply trace, not one tick, the
	// operation the latency metrics time.
	passOp bool
	// setups is how many set-ups a run makes: every fleet once, then the
	// first fleets again, which must reach the same state. setup_s is
	// the median.
	setups int
}

// fleetTail is the tail percentile the fleet workloads report: the
// highest that leaves at least ten operations beyond it among those a
// 20-second run measures.
const fleetTail = 0.95

// steady100k is BenchmarkFleetTick/100k: rated supply and no demand
// noise, so the demand phase shards and no migration is ever needed.
var steady100k = fleetWorkload{
	name:         "fleet-steady-100k",
	fleets:       1,
	warmup:       28,
	roundSeconds: 1.25,
	setups:       3,
	config: func(seed uint64) (cluster.Config, error) {
		cfg := cluster.PaperConfig(0.5)
		cfg.Fanout = []int{4, 5, 5, 10, 100}
		cfg.Supply = power.Constant(float64(fleetSize(cfg.Fanout)) * cfg.ServerPower.Peak)
		cfg.Core.NoiseLambda = -1
		cfg.Core.Shards = runtime.NumCPU()
		cfg.Warmup = 1
		cfg.Ticks = 1 << 30
		cfg.Seed = seed
		return cfg, nil
	},
}

// deficit8x1k cycles the root supply of eight 1k-server fleets through
// the willowd deficit-steps trace (down to 55 % of rated), so
// demand-side migration, FFDLR packing and the resilient allocation path
// all run. The first pass of the trace migrates most of a fleet at once;
// the warm-up covers it and six passes more, after which each pass
// migrates tens of applications, fewer as the placement settles. Most of
// that work falls in the three ticks of the deepest step, which take
// several times the median tick, so the operation is the whole 32-tick
// pass: a tick percentile would land among those three ticks and jump
// with any one of them.
//
// How much a 1k fleet migrates depends on where its seed places the
// applications: one seed's passes took 1.3x another's, on the same host.
// Pooling eight fleets averages that out. One 8k fleet would too, but
// packing costs grow faster than the fleet, and a 10k fleet steps only
// one pass a second.
var deficit8x1k = fleetWorkload{
	name:         "fleet-deficit-8x1k",
	fleets:       8,
	warmup:       224,
	roundSeconds: 1.9,
	passOp:       true,
	setups:       9,
	config: func(seed uint64) (cluster.Config, error) {
		spec := server.Spec{
			Util: 0.5, Fanout: []int{10, 10, 10}, Ticks: 1 << 30, Seed: seed,
			Supply: "deficit-steps", LeaseTicks: 8, Sensing: true,
		}
		cfg, err := spec.Build()
		cfg.Core.Shards = runtime.NumCPU()
		return cfg, err
	},
}

func fleetSize(fanout []int) int {
	n := 1
	for _, f := range fanout {
		n *= f
	}
	return n
}

// fleetSeed is the seed of fleet i of n in a run seeded with seed. A run
// of one fleet uses the run's seed itself.
func fleetSeed(seed uint64, i, n int) uint64 {
	if n == 1 {
		return seed
	}
	return seed<<8 | uint64(i)
}

// fleetDigest summarizes a machine's simulated statistics. It is a pure
// function of the seed and the tick reached.
func fleetDigest(m *cluster.Machine) string {
	res := m.Result()
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	return fmt.Sprintf("tick=%d demand_migrations=%d consolidation_migrations=%d local_migrations=%d total_energy=%s max_temp=%s limit_violation_ticks=%d",
		m.NextTick(), res.DemandMigrations, res.ConsolidationMigrations, res.Stats.LocalMigrations,
		f(res.TotalEnergy), f(res.MaxTemp), res.LimitViolationTicks)
}

// phaseTracer is the benchmark's core.PhaseObserver: it sums the
// controller's wall-clock phase timings. The controllers call it from
// the stepping goroutine only.
type phaseTracer struct {
	sum map[string]float64 // seconds per phase
	n   map[string]int     // calls per phase
}

func (t *phaseTracer) ObservePhase(phase string, seconds float64) {
	t.sum[phase] += seconds
	t.n[phase]++
}

// fleetPhase is what one measured stretch of ticks recorded.
type fleetPhase struct {
	passes     [][]float64 // per pass, one Machine.Step time (ms) per tick
	migrations int
	events     int
	allocBytes uint64
	phases     phaseTracer
}

// measured returns the operation latencies (ms) and the tick times (ms)
// of a phase.
func (w fleetWorkload) measured(ph fleetPhase) (ops, ticks []float64) {
	for _, ps := range ph.passes {
		ticks = append(ticks, ps...)
		if w.passOp {
			ops = append(ops, sum(ps))
		}
	}
	if !w.passOp {
		ops = ticks
	}
	return ops, ticks
}

// count is the number of operations the phase ran.
func (w fleetWorkload) count(ph fleetPhase) int {
	if w.passOp {
		return len(ph.passes)
	}
	return len(ph.passes) * len(ph.passes[0])
}

func migrations(fleets []*cluster.Machine) int {
	n := 0
	for _, m := range fleets {
		n += m.Controller().Stats.DemandMigrations + m.Controller().Stats.ConsolidationMigrations
	}
	return n
}

func runFleet(w fleetWorkload, p params) (*result, error) {
	r := newResult()
	fleets := make([]*cluster.Machine, w.fleets)
	var setups, builds []float64
	warmDigest := map[int]string{}
	for rep := 0; rep < w.setups; rep++ {
		i := rep % w.fleets
		fleets[i] = nil // let the previous build go before making the next
		runtime.GC()
		start := time.Now()
		cfg, err := w.config(fleetSeed(p.seed, i, w.fleets))
		if err != nil {
			return nil, err
		}
		m, err := cluster.NewMachine(cfg)
		if err != nil {
			return nil, err
		}
		builds = append(builds, time.Since(start).Seconds())
		for m.NextTick() < w.warmup {
			m.Step()
		}
		setups = append(setups, time.Since(start).Seconds())
		fleets[i] = m
		d := fleetDigest(m)
		if want, ok := warmDigest[i]; ok {
			r.check(d == want, "set-up %d of fleet %d reached a different state: %s, want %s", rep, i, d, want)
		} else {
			warmDigest[i] = d
		}
	}

	eta1, eta2 := fleets[0].Controller().Cfg.Eta1, fleets[0].Controller().Cfg.Eta2
	window, pass := cycleTicks(fleets[0].Config(), eta1, eta2)
	checkpoint := w.warmup + window
	// measure steps whole rounds, as many as fit the budget at
	// roundSeconds each and at least one; a round steps one window of
	// every fleet in turn. The digest is taken at a fixed tick, the end
	// of the first window, so it cannot depend on host speed.
	measure := func(budget time.Duration, traced bool) (fleetPhase, error) {
		var ph fleetPhase
		var ms0 runtime.MemStats
		migrated := migrations(fleets)
		if traced {
			ph.phases = phaseTracer{sum: map[string]float64{}, n: map[string]int{}}
			for _, m := range fleets {
				m.Controller().Phases = &ph.phases
				m.SetSink(telemetry.SinkFunc(func(telemetry.Event) { ph.events++ }))
			}
			runtime.ReadMemStats(&ms0)
		}
		rounds := max(1, int(math.Round(budget.Seconds()/w.roundSeconds)))
		for range rounds {
			for _, m := range fleets {
				for i := 0; i < window; i += pass {
					tickMS := make([]float64, pass)
					for j := range tickMS {
						t0 := time.Now()
						m.Step()
						tickMS[j] = ms(int64(time.Since(t0)))
					}
					ph.passes = append(ph.passes, tickMS)
				}
			}
			if fleets[0].NextTick() == checkpoint {
				digests := make([]string, len(fleets))
				for i, m := range fleets {
					digests[i] = fleetDigest(m)
				}
				if err := checkDigest(r, w.name, p.seed, strings.Join(digests, " | ")); err != nil {
					return ph, err
				}
			}
		}
		if traced {
			var ms1 runtime.MemStats
			runtime.ReadMemStats(&ms1)
			ph.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
			for _, m := range fleets {
				m.Controller().Phases = nil
				m.SetSink(nil)
			}
		}
		ph.migrations = migrations(fleets) - migrated
		return ph, nil
	}

	budget := p.budget()
	if p.traced {
		budget /= 2
	}
	plain, err := measure(budget, false)
	if err != nil {
		return nil, err
	}
	var tr fleetPhase
	if p.traced {
		if tr, err = measure(budget, true); err != nil {
			return nil, err
		}
	}
	for i, m := range fleets {
		res := m.Result()
		r.check(res.LimitViolationTicks == 0 && res.MaxTemp <= trueCap+1e-6,
			"fleet %d: true cap broken: max temp %v °C, %d violating server-ticks", i, res.MaxTemp, res.LimitViolationTicks)
	}
	r.Attempted = int64(w.count(plain))
	if p.traced {
		r.Attempted += int64(w.count(tr))
	}
	ops, opTicks := w.measured(plain)

	// Each tick steps one fleet.
	servers := float64(len(fleets[0].Controller().Servers))
	if !p.traced {
		r.set("setup_s", "s", median(setups))
		r.set("rss_mb", "MB", retainedRSSMB())
		runtime.KeepAlive(fleets) // the fleets are what the process holds
		r.set("latency_p50_ms", "ms", median(ops))
		r.set("latency_tail_ms", "ms", quantile(ops, fleetTail))
		r.set("ops_per_s", "1/s", 1000/mean(ops))
		r.set("server_ticks_per_s", "1/s", servers*1000/mean(opTicks))
		return r, nil
	}

	tracedOps, all := w.measured(tr)
	ticks := float64(len(all))
	stepMS := mean(all)
	phaseS, n := tr.phases.sum, tr.phases.n
	setLayerDefaults(r)
	r.set("cluster.build_s", "s", median(builds))
	r.set("cluster.step_ms", "ms", stepMS)
	r.set("core.observe_ms", "ms", 1000*ratio(phaseS["observe"], float64(n["observe"])))
	r.set("core.allocate_ms", "ms", 1000*ratio(phaseS["allocate"], float64(n["allocate"])))
	r.set("core.consume_ms", "ms", 1000*ratio(phaseS["consume"], float64(n["consume"])))
	r.set("core.rest_ms", "ms", stepMS-1000*(phaseS["observe"]+phaseS["allocate"]+phaseS["consume"])/ticks)
	r.set("core.migrations_per_tick", "count", float64(tr.migrations)/ticks)
	r.set("core.events_per_tick", "count", float64(tr.events)/ticks)
	r.set("go.alloc_bytes_per_op", "bytes", float64(tr.allocBytes)/float64(w.count(tr)))
	r.set("trace.overhead_ms", "ms", median(tracedOps)-median(ops))
	return r, nil
}
