// Benchmarks regenerating every table and figure of the paper's
// evaluation (Section V), one per artifact, per the per-experiment index
// in DESIGN.md. Each benchmark executes the same code path as
//
//	willow-exp -run <id> -quick
//
// so `go test -bench=.` both times the harness and re-verifies that every
// artifact still reproduces (a failing experiment fails its benchmark).
//
// The headline rows are printed once per benchmark via b.Logf under -v.
package willow_test

import (
	"context"
	"runtime"
	"testing"

	"willow/internal/exp"
	"willow/internal/telemetry"
)

// run executes one registered experiment.
func run(id string, opts exp.Options) (*exp.Result, error) {
	e, err := exp.Get(id)
	if err != nil {
		return nil, err
	}
	return e.Run(opts)
}

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		res, err := run(id, exp.Options{Quick: true})
		if err != nil {
			b.Fatalf("%s: %v", id, err)
		}
		if i == 0 {
			for _, n := range res.Notes {
				b.Logf("%s: %s", id, n)
			}
		}
	}
}

// Whole-suite benchmarks: the sequential walk versus the RunMany worker
// pool over every registered experiment. Their ratio is the headline
// speedup of the parallel engine; rendered output is byte-identical
// between the two (verified by TestRunManyMatchesSequential in
// internal/exp), so the comparison is pure scheduling.

func BenchmarkAllSequential(b *testing.B) {
	ids := exp.IDs()
	b.ReportMetric(float64(len(ids)), "experiments/op")
	for i := 0; i < b.N; i++ {
		for _, id := range ids {
			if _, err := run(id, exp.Options{Quick: true}); err != nil {
				b.Fatalf("%s: %v", id, err)
			}
		}
	}
}

// BenchmarkAllSequentialEvents is BenchmarkAllSequential with every
// simulation publishing its full telemetry stream into a no-op sink —
// the enabled-dispatch overhead. Both it and the nil-sink walk above
// are alloc-gated by `make bench-smoke` (internal/tools/benchguard), so
// neither the disabled nor the enabled path can quietly grow
// allocations.
func BenchmarkAllSequentialEvents(b *testing.B) {
	ids := exp.IDs()
	for i := 0; i < b.N; i++ {
		for _, id := range ids {
			if _, err := run(id, exp.Options{Quick: true, EventSink: telemetry.Discard}); err != nil {
				b.Fatalf("%s: %v", id, err)
			}
		}
	}
}

func BenchmarkAllParallel(b *testing.B) {
	ids := exp.IDs()
	b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "workers")
	for i := 0; i < b.N; i++ {
		if _, err := exp.RunMany(context.Background(), ids, exp.Options{Quick: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAllParallelReps8 times the replication fan-out: every
// experiment × 8 derived seeds with mean ± CI aggregation — the sweep
// shape the sensitivity studies use.
func BenchmarkAllParallelReps8(b *testing.B) {
	ids := exp.IDs()
	for i := 0; i < b.N; i++ {
		if _, err := exp.RunMany(context.Background(), ids, exp.Options{Quick: true, Replications: 8}); err != nil {
			b.Fatal(err)
		}
	}
}

// Simulation-study artifacts (Section V-B).

func BenchmarkFig4(b *testing.B)  { benchExperiment(b, "fig4") }
func BenchmarkFig5(b *testing.B)  { benchExperiment(b, "fig5") }
func BenchmarkFig6(b *testing.B)  { benchExperiment(b, "fig6") }
func BenchmarkFig7(b *testing.B)  { benchExperiment(b, "fig7") }
func BenchmarkFig9(b *testing.B)  { benchExperiment(b, "fig9") }
func BenchmarkFig10(b *testing.B) { benchExperiment(b, "fig10") }
func BenchmarkFig11(b *testing.B) { benchExperiment(b, "fig11") }
func BenchmarkFig12(b *testing.B) { benchExperiment(b, "fig12") }

// Testbed artifacts (Section V-C).

func BenchmarkTable1(b *testing.B) { benchExperiment(b, "table1") }
func BenchmarkTable2(b *testing.B) { benchExperiment(b, "table2") }
func BenchmarkFig14(b *testing.B)  { benchExperiment(b, "fig14") }
func BenchmarkFig15(b *testing.B)  { benchExperiment(b, "fig15") }
func BenchmarkFig16(b *testing.B)  { benchExperiment(b, "fig16") }
func BenchmarkFig17(b *testing.B)  { benchExperiment(b, "fig17") }
func BenchmarkFig19(b *testing.B)  { benchExperiment(b, "fig19") }
func BenchmarkTable3(b *testing.B) { benchExperiment(b, "table3") }

// Analytical properties (Section V-A).

func BenchmarkPropMessages(b *testing.B)    { benchExperiment(b, "prop-messages") }
func BenchmarkPropStability(b *testing.B)   { benchExperiment(b, "prop-stability") }
func BenchmarkFFDLR(b *testing.B)           { benchExperiment(b, "prop-binpack") }
func BenchmarkPropConvergence(b *testing.B) { benchExperiment(b, "prop-convergence") }
func BenchmarkPropScaling(b *testing.B)     { benchExperiment(b, "prop-scaling") }
func BenchmarkPropImbalance(b *testing.B)   { benchExperiment(b, "prop-imbalance") }

// Extensions: the paper's §VI future-work directions, implemented.

func BenchmarkExtQoS(b *testing.B)      { benchExperiment(b, "ext-qos") }
func BenchmarkExtCooling(b *testing.B)  { benchExperiment(b, "ext-cooling") }
func BenchmarkExtIPC(b *testing.B)      { benchExperiment(b, "ext-ipc") }
func BenchmarkExtDevice(b *testing.B)   { benchExperiment(b, "ext-device") }
func BenchmarkExtIdle(b *testing.B)     { benchExperiment(b, "ext-idle") }
func BenchmarkExtAsync(b *testing.B)    { benchExperiment(b, "ext-async") }
func BenchmarkExtLatency(b *testing.B)  { benchExperiment(b, "ext-latency") }
func BenchmarkExtTransfer(b *testing.B) { benchExperiment(b, "ext-transfer") }
func BenchmarkExtHetero(b *testing.B)   { benchExperiment(b, "ext-hetero") }
func BenchmarkExtVariance(b *testing.B) { benchExperiment(b, "ext-variance") }
func BenchmarkExtFailure(b *testing.B)  { benchExperiment(b, "ext-failure") }

// Ablations of DESIGN.md's called-out design choices.

func BenchmarkAblationMargin(b *testing.B)      { benchExperiment(b, "ablation-margin") }
func BenchmarkAblationLocality(b *testing.B)    { benchExperiment(b, "ablation-local") }
func BenchmarkAblationHierarchy(b *testing.B)   { benchExperiment(b, "ablation-hier") }
func BenchmarkAblationGranularity(b *testing.B) { benchExperiment(b, "ablation-granularity") }
func BenchmarkAblationSmoothing(b *testing.B)   { benchExperiment(b, "ablation-smoothing") }
func BenchmarkExtDemandside(b *testing.B)       { benchExperiment(b, "ext-demandside") }
func BenchmarkAblationForesight(b *testing.B)   { benchExperiment(b, "ablation-foresight") }
