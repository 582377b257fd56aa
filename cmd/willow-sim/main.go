// Command willow-sim runs a free-form Willow data-center simulation: the
// paper's 18-server hierarchy (or a custom fan-out) under a chosen
// utilization and supply profile, printing per-server and control-plane
// summaries. The scenario flags are server.Spec's, shared with willowd.
//
//	willow-sim -util 0.5
//	willow-sim -util 0.7 -supply sine -ticks 600
//	willow-sim -fanout 4,4,4 -util 0.6 -supply deficit-steps -csv
//	willow-sim -util 0.7 -chaos medium,sensor-heavy -sensor-naive
//	willow-sim -util 0.7 -write-config run.json && willow-sim -config run.json -seed 7
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"willow/internal/cluster"
	"willow/internal/metrics"
	"willow/internal/server"
	"willow/internal/telemetry"
)

// errUsage marks a command line the flag package already reported.
var errUsage = errors.New("usage")

func main() {
	err := run(os.Args[1:], os.Stdout)
	switch {
	case err == nil, errors.Is(err, flag.ErrHelp):
	case errors.Is(err, errUsage):
		os.Exit(2)
	default:
		fmt.Fprintln(os.Stderr, "willow-sim:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	spec := server.DefaultSpec()
	fs := flag.NewFlagSet("willow-sim", flag.ContinueOnError)
	spec.RegisterFlags(fs)
	var (
		csv          = fs.Bool("csv", false, "emit per-server results as CSV")
		configPath   = fs.String("config", "", "run the server.Spec in this JSON file; scenario flags set on the command line override it")
		writeConfig  = fs.String("write-config", "", "write the run's server.Spec as JSON to this path and exit")
		events       = fs.String("events", "", "stream controller events as JSONL to this file (plus a .summary.txt report)")
		eventsFilter = fs.String("events-filter", "", "comma-separated event kinds to keep in the stream (budget,migration,throttle,sleep-wake,failure,qos,degraded,sensor; default all)")
	)
	if err := fs.Parse(args); err != nil {
		return fmt.Errorf("%w: %w", errUsage, err)
	}
	if *configPath != "" {
		if err := loadSpec(fs, &spec, *configPath); err != nil {
			return err
		}
	}
	if *writeConfig != "" {
		data, err := json.MarshalIndent(spec, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*writeConfig, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote run spec to %s\n", *writeConfig)
		return nil
	}

	cfg, err := spec.Build()
	if err != nil {
		return err
	}
	var sink *telemetry.FileSink
	if *events != "" {
		keep := telemetry.AllKinds
		if *eventsFilter != "" {
			if keep, err = telemetry.ParseKindSet(*eventsFilter); err != nil {
				return err
			}
		}
		base := strings.TrimSuffix(*events, ".jsonl")
		if sink, err = telemetry.OpenFileSink(*events, base+".summary.txt", "telemetry summary", keep); err != nil {
			return err
		}
		cfg.Sink = sink
	}

	// Run under a signal-aware context: SIGINT/SIGTERM stops the
	// simulation at the next tick boundary instead of killing the
	// process mid-write, and the event sink is flushed and closed on
	// every exit path — an interrupted run leaves a complete, parseable
	// JSONL stream rather than a truncated one.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	res, err := cluster.RunContext(ctx, cfg)
	if sink != nil {
		if cerr := sink.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	if err != nil {
		if errors.Is(err, context.Canceled) {
			return errors.New("interrupted; partial event stream flushed cleanly")
		}
		return err
	}

	tb := metrics.NewTable(
		fmt.Sprintf("willow-sim: %d servers, U=%.0f%%, supply=%s, %d ticks (%d warm-up)",
			spec.Servers(), cfg.Utilization*100, fs.Lookup("supply").Value, cfg.Ticks, cfg.Warmup),
		"server", "mean power (W)", "mean temp (°C)", "saved (W)", "asleep frac",
	)
	for i := range res.MeanPower {
		tb.AddRow(
			fmt.Sprintf("%d", i+1),
			fmt.Sprintf("%.1f", res.MeanPower[i]),
			fmt.Sprintf("%.1f", res.MeanTemp[i]),
			fmt.Sprintf("%.1f", res.PowerSaved[i]),
			fmt.Sprintf("%.2f", res.AsleepFraction[i]),
		)
	}
	if *csv {
		fmt.Fprint(stdout, tb.CSV())
	} else {
		fmt.Fprint(stdout, tb.String())
	}

	fmt.Fprintf(stdout, "\nmigrations: %d demand-driven, %d consolidation-driven (%d local)\n",
		res.DemandMigrations, res.ConsolidationMigrations, res.Stats.LocalMigrations)
	fmt.Fprintf(stdout, "migration traffic share of network capacity: %.5f\n", res.MigrationShare)
	fmt.Fprintf(stdout, "dropped demand: %.0f watt-ticks; ping-pongs: %d; max messages/link/tick: %d\n",
		res.DroppedWattTicks, res.Stats.PingPongs, res.Stats.MaxLinkMessagesPerTick)
	fmt.Fprintf(stdout, "hottest temperature reached: %.1f °C\n", res.MaxTemp)
	if len(cfg.Faults.SensorFaults) > 0 {
		fmt.Fprintf(stdout, "hottest observed temperature: %.1f °C; true-limit violations: %d server-ticks\n",
			res.MaxObsTemp, res.LimitViolationTicks)
		fmt.Fprintf(stdout, "sensors: %d faults injected, %d readings rejected, %d unhealthy trips, %d guard-band ticks\n",
			res.Stats.SensorFaults, res.Stats.SensorRejected,
			res.Stats.SensorUnhealthy, res.Stats.SensorGuardTicks)
	}
	if spec.Energy {
		e := res.Energy
		fmt.Fprintf(stdout, "energy: %.0f J consumed over %d ticks (%.3g s/tick) — %.0f J useful work (%.4f work/joule), %.0f J shed, %.0f J dissipated\n",
			e.Fleet.Joules, cfg.Ticks, e.TickSeconds,
			e.Fleet.WorkJoules, e.Fleet.WorkPerJoule(), e.Fleet.ShedJoules, e.Fleet.HeatJoules)
		for _, r := range e.Racks {
			fmt.Fprintf(stdout, "energy: rack %d (servers %d-%d): %.0f J, %.4f work/joule\n",
				r.Node, r.Lo+1, r.Hi, r.Totals.Joules, r.Totals.WorkPerJoule())
		}
		for _, c := range e.Classes {
			fmt.Fprintf(stdout, "energy: class %s: %.0f J served\n", c.Class, c.ServedJoules)
		}
	}
	if spec.Chaos != "" {
		f := cfg.Faults
		fmt.Fprintf(stdout, "chaos plan: %d server failures, %d PMU failures, %d loss windows, %d sensor faults\n",
			len(f.ServerFailures), len(f.PMUFailures), len(f.LossWindows), len(f.SensorFaults))
		fmt.Fprintf(stdout, "faults: %d server (%d repaired), %d PMU (%d repaired); lease expiries: %d; degraded server-ticks: %d; restarts: %d\n",
			res.Stats.Failures, res.Stats.Repairs,
			res.Stats.PMUFailures, res.Stats.PMURepairs,
			res.Stats.LeaseExpiries, res.Stats.DegradedTicks, res.Stats.Restarts)
	}

	if sink != nil {
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, sink.Agg.Table(fmt.Sprintf("telemetry: %d events -> %s", sink.Agg.Total(), *events)).String())
	}
	return nil
}

// loadSpec replaces spec with the one in path, then re-applies every
// flag set on the command line, so an explicit flag overrides the file.
func loadSpec(fs *flag.FlagSet, spec *server.Spec, path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var set [][2]string
	fs.Visit(func(f *flag.Flag) { set = append(set, [2]string{f.Name, f.Value.String()}) })
	if err := json.Unmarshal(data, spec); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	for _, kv := range set {
		if err := fs.Set(kv[0], kv[1]); err != nil {
			return err
		}
	}
	return nil
}
