// Package exp regenerates every table and figure of the paper's
// evaluation (Section V). Each experiment has a stable identifier (e.g.
// "fig5", "table3"); Run executes one and returns its rows as a
// metrics.Table whose series mirror what the paper plots. The
// cmd/willow-exp binary and the repository's bench_test.go both drive
// this package, so the printed rows and the benchmarked work are
// identical.
package exp

import (
	"fmt"
	"sort"

	"willow/internal/metrics"
	"willow/internal/telemetry"
)

// Options tune experiment execution.
type Options struct {
	// Quick shrinks run lengths and sweep densities for smoke tests and
	// benchmarks; the shapes remain, the averages get noisier.
	Quick bool
	// Seed overrides the default deterministic seed when non-zero. Under
	// Replications > 1 it instead seeds the SplitMix64 stream that the
	// per-replication seeds are drawn from.
	Seed uint64
	// Replications, when > 1, makes RunMany execute each experiment that
	// many times with independent SplitMix64-derived seeds and aggregate
	// the runs into one mean ± 95 % CI table. 0 and 1 both mean a single
	// run whose output is byte-identical to Run.
	Replications int
	// Workers bounds RunMany's worker pool; 0 means GOMAXPROCS. Results
	// do not depend on it — only wall-clock time does.
	Workers int
	// EventSink, when non-nil, receives the controller telemetry stream
	// of every simulation the experiment runs, in a deterministic order
	// (sweep points replay in input order — see cluster.RunAll). It is
	// a single-run option: it must only be set on a direct Run call or
	// installed per task by RunMany via EventSinks; sharing one sink
	// across RunMany's concurrent tasks would race.
	EventSink telemetry.Sink
	// EventSinks, when non-nil, is called by RunMany once per
	// (experiment, replication) to create that task's private sink,
	// which is installed as the task's EventSink and closed (when it
	// implements io.Closer) after the task completes. This is how
	// replicated runs produce per-replication event files.
	EventSinks func(id string, replication int) (telemetry.Sink, error)
	// ChaosSpec, when non-empty, is a chaos schedule specification
	// (chaos.ParseSpec) for the experiments that inject faults — the
	// resilience experiment swaps its default intensity sweep and the
	// sensing experiment its intensity ladder for this one spec.
	// ChaosSeed seeds the schedule expansion (0 takes a fixed default);
	// it is deliberately independent of Seed so replications vary the
	// workload under an identical fault plan.
	ChaosSpec string
	ChaosSeed uint64
	// PolicySpec, when non-empty, is a controller-policy specification
	// (policy.ParseSpec) applied to every simulation an experiment
	// runs — "" and "willow" are byte-identical. The bake-off family
	// ignores it: it always runs all policies side by side.
	PolicySpec string
}

func (o Options) seed(def uint64) uint64 {
	if o.Seed != 0 {
		return o.Seed
	}
	return def
}

// Experiment is one reproducible paper artifact.
type Experiment struct {
	// ID is the stable identifier (table/figure number).
	ID string
	// Title describes the paper artifact.
	Title string
	// Run executes the experiment.
	Run Runner
	// Timing marks experiments whose tables embed wall-clock
	// measurements. They are seeded like every other experiment but their
	// rendered cells legitimately vary run to run, so the determinism
	// contract (byte-identical output for equal Options) excludes them.
	Timing bool
}

// Runner executes an experiment and renders its result.
type Runner func(Options) (*Result, error)

// Result bundles an experiment's rendered table with the headline
// numbers EXPERIMENTS.md records.
type Result struct {
	Table *metrics.Table
	// Notes are headline observations ("savings = 27.5 %", "spike at
	// 50 % utilization") suitable for the paper-vs-measured record.
	Notes []string
}

// registry holds every experiment keyed by ID.
var registry = map[string]Experiment{}

func register(id, title string, run Runner) {
	if _, dup := registry[id]; dup {
		panic("exp: duplicate experiment id " + id)
	}
	registry[id] = Experiment{ID: id, Title: title, Run: run}
}

// registerTiming registers an experiment whose output embeds wall-clock
// measurements (see Experiment.Timing).
func registerTiming(id, title string, run Runner) {
	register(id, title, run)
	e := registry[id]
	e.Timing = true
	registry[id] = e
}

// Get returns the experiment with the given ID.
func Get(id string) (Experiment, error) {
	e, ok := registry[id]
	if !ok {
		return Experiment{}, fmt.Errorf("exp: unknown experiment %q (try one of %v)", id, IDs())
	}
	return e, nil
}

// IDs returns all experiment identifiers, sorted.
func IDs() []string {
	ids := make([]string, 0, len(registry))
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}
