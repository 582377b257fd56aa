// Command willow-exp regenerates the tables and figures of the paper's
// evaluation. Each experiment is addressed by the paper artifact it
// reproduces:
//
//	willow-exp -list
//	willow-exp -run fig5
//	willow-exp -run table3 -csv
//	willow-exp -all
//
// Quick mode (-quick) shrinks run lengths for a fast smoke pass; the
// shapes remain but averages get noisier. -reps N replicates each
// experiment N times under independent derived seeds and reports
// mean ± 95 % CI tables; -parallel bounds the worker pool (0 =
// GOMAXPROCS — results never depend on it, only wall-clock does).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"

	"willow/internal/exp"
	"willow/internal/policy"
	"willow/internal/telemetry"
)

func main() {
	var (
		list         = flag.Bool("list", false, "list available experiments")
		run          = flag.String("run", "", "experiment id to run (e.g. fig5, table3)")
		all          = flag.Bool("all", false, "run every experiment")
		quick        = flag.Bool("quick", false, "shrink run lengths (smoke mode)")
		csv          = flag.Bool("csv", false, "emit CSV instead of an aligned table")
		seed         = flag.Uint64("seed", 0, "override the deterministic seed (0 = default)")
		reps         = flag.Int("reps", 0, "seeded replications per experiment (aggregated as mean ± 95% CI)")
		workers      = flag.Int("parallel", 0, "max concurrent experiment runs (0 = GOMAXPROCS, 1 = sequential)")
		save         = flag.String("save", "", "write each experiment's CSV and notes under this directory")
		report       = flag.String("report", "", "run every experiment and write a single markdown report here")
		events       = flag.String("events", "", "write per-run JSONL event streams and summary reports under this directory")
		eventsFilter = flag.String("events-filter", "", "comma-separated event kinds to keep in streams (budget,migration,throttle,sleep-wake,failure,qos,degraded,sensor; default all)")
		chaosSpec    = flag.String("chaos", "", "chaos schedule for fault-injecting experiments, e.g. \"medium\", \"light,pmu-mtbf=400\" or \"sensor-light,sensor-dropout=1\" (resilience runs it against the fail-free baseline; sensing runs it naive and robust in place of its intensity ladder)")
		chaosSeed    = flag.Uint64("chaos-seed", 0, "seed for chaos schedule expansion (0 = fixed default)")
		policySpec   = flag.String("policy", "", "controller policy for every run, e.g. \"integral\" or \"mpc,horizon=8\" (the bakeoff experiments ignore it and run all policies)")
	)
	flag.Parse()

	if *policySpec != "" {
		if _, err := policy.ParseSpec(*policySpec); err != nil {
			fatal(err)
		}
	}
	opts := exp.Options{
		Quick: *quick, Seed: *seed, Replications: *reps, Workers: *workers,
		ChaosSpec: *chaosSpec, ChaosSeed: *chaosSeed, PolicySpec: *policySpec,
	}
	if *events != "" {
		sinks, err := eventSinkFactory(*events, *eventsFilter, *reps)
		if err != nil {
			fatal(err)
		}
		opts.EventSinks = sinks
	}

	// Ctrl-C stops scheduling new runs; in-flight simulations finish.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	if *report != "" {
		if err := writeReport(ctx, *report, opts); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", *report)
		return
	}

	switch {
	case *list:
		for _, id := range exp.IDs() {
			e, err := exp.Get(id)
			if err != nil {
				fatal(err)
			}
			fmt.Printf("%-16s %s\n", e.ID, e.Title)
		}
	case *all:
		// Experiments are independent; run them on the pool and print in
		// registry order.
		results, err := exp.RunMany(ctx, exp.IDs(), opts)
		if err != nil {
			fatal(err)
		}
		for i, id := range exp.IDs() {
			if err := emit(id, results[i], *csv, *save); err != nil {
				fatal(err)
			}
			fmt.Println()
		}
	case *run != "":
		if err := runOne(ctx, *run, opts, *csv, *save); err != nil {
			fatal(err)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func runOne(ctx context.Context, id string, opts exp.Options, csv bool, saveDir string) error {
	results, err := exp.RunMany(ctx, []string{id}, opts)
	if err != nil {
		return err
	}
	return emit(id, results[0], csv, saveDir)
}

// emit prints one experiment's result and optionally saves it.
func emit(id string, res *exp.Result, csv bool, saveDir string) error {
	if csv {
		fmt.Print(res.Table.CSV())
	} else {
		fmt.Print(res.Table.String())
	}
	for _, n := range res.Notes {
		fmt.Printf("note: %s\n", n)
	}
	if saveDir == "" {
		return nil
	}
	if err := os.MkdirAll(saveDir, 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(saveDir, id+".csv"), []byte(res.Table.CSV()), 0o644); err != nil {
		return err
	}
	var notes strings.Builder
	notes.WriteString(res.Table.Title)
	notes.WriteByte('\n')
	for _, n := range res.Notes {
		notes.WriteString("note: ")
		notes.WriteString(n)
		notes.WriteByte('\n')
	}
	return os.WriteFile(filepath.Join(saveDir, id+".notes.txt"), []byte(notes.String()), 0o644)
}

// writeReport regenerates every experiment and assembles one markdown
// document: title, table, notes per artifact.
func writeReport(ctx context.Context, path string, opts exp.Options) error {
	var sb strings.Builder
	sb.WriteString("# Willow — regenerated evaluation\n\n")
	sb.WriteString("Produced by `willow-exp -report`; every table below is a live run.\n\n")
	results, err := exp.RunMany(ctx, exp.IDs(), opts)
	if err != nil {
		return err
	}
	for i, id := range exp.IDs() {
		e, err := exp.Get(id)
		if err != nil {
			return err
		}
		res := results[i]
		fmt.Fprintf(&sb, "## %s — %s\n\n", e.ID, e.Title)
		title := res.Table.Title
		res.Table.Title = "" // the section heading carries the context
		sb.WriteString(res.Table.Markdown())
		res.Table.Title = title
		sb.WriteByte('\n')
		for _, n := range res.Notes {
			fmt.Fprintf(&sb, "- %s\n", n)
		}
		sb.WriteByte('\n')
	}
	return os.WriteFile(path, []byte(sb.String()), 0o644)
}

// eventSinkFactory returns the per-(experiment, replication) sink
// constructor RunMany installs on each task: <dir>/<id>.jsonl (or
// <id>.rep<r>.jsonl under -reps) plus a matching .summary.txt report.
// Each task owns its own file, so the files are byte-identical for any
// -parallel setting.
func eventSinkFactory(dir, filter string, reps int) (func(id string, rep int) (telemetry.Sink, error), error) {
	keep := telemetry.AllKinds
	if filter != "" {
		var err error
		if keep, err = telemetry.ParseKindSet(filter); err != nil {
			return nil, err
		}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return func(id string, rep int) (telemetry.Sink, error) {
		base := id
		if reps > 1 {
			base = fmt.Sprintf("%s.rep%d", id, rep)
		}
		return telemetry.OpenFileSink(
			filepath.Join(dir, base+".jsonl"),
			filepath.Join(dir, base+".summary.txt"),
			fmt.Sprintf("%s — telemetry summary", base),
			keep,
		)
	}, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "willow-exp:", err)
	os.Exit(1)
}
