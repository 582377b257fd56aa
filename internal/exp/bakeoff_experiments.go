package exp

import (
	"fmt"

	"willow/internal/cluster"
	"willow/internal/metrics"
	"willow/internal/power"
)

func init() {
	register("bakeoff", "Controller-policy bake-off — identical chaotic plans, all policies", runBakeoff)
	register("bakeoff-stress", "Controller-policy bake-off under supply swings at high load", runBakeoffStress)
}

// bakeoffPolicies are the contenders, in table order.
var bakeoffPolicies = []string{"willow", "integral", "mpc"}

// convWindow is the sustain requirement of the convergence metric: the
// fleet counts as converged at the first tick from which the worst
// per-server deficit stays within P_min for this many consecutive
// ticks.
const convWindow = 20

// bakeoffRow runs one policy over a fully materialized config (chaos
// and sensor plans already folded in) by stepping the machine manually,
// tracking convergence online, and returns the policy's scorecard
// cells. Every policy sees byte-identical (seed, chaos, sensor,
// demand) plans because the config is built once per variant from the
// same inputs and only the Policy string differs — policies draw no
// randomness, so the simulation streams stay aligned.
func bakeoffRow(cfg cluster.Config) (*cluster.Result, []string, error) {
	m, err := cluster.NewMachine(cfg)
	if err != nil {
		return nil, nil, err
	}
	pmin := m.Controller().Cfg.PMin
	conv := -1
	streak := 0
	for !m.Done() {
		m.Step()
		def, _, _ := m.Controller().LevelImbalance(0)
		if def <= pmin+1e-9 {
			streak++
			if streak >= convWindow && conv < 0 {
				conv = m.NextTick() - convWindow
			}
		} else {
			streak = 0
		}
	}
	if conv < 0 {
		conv = cfg.Ticks // never converged: score the full horizon
	}
	r := m.Result()
	cells := []string{
		fmt.Sprintf("%d", r.LimitViolationTicks),
		fmt.Sprintf("%.1f", r.MaxTemp),
		fmt.Sprintf("%.1f", r.Energy.Fleet.WorkJoules/1000),
		fmt.Sprintf("%.3f", r.Energy.Fleet.WorkPerJoule()),
		fmt.Sprintf("%d", r.DemandMigrations+r.ConsolidationMigrations),
		fmt.Sprintf("%d", conv),
	}
	return r, cells, nil
}

// runBakeoff races every controller policy over identical seeded plans:
// the paper configuration at 70 % utilization under the "medium"
// machine-chaos schedule (server/PMU crashes, rack bursts, link loss)
// plus the "medium" sensor-fault plan with the robust estimator armed.
// Chaos expansion is seeded independently of the workload seed, so
// replications vary demand under one fault plan, and every policy row
// sees the same faults at the same ticks.
//
// Scorecard per policy: true-temperature cap violations (server-ticks)
// and max true temperature, useful work (kJ) and work-per-joule,
// migration churn, and convergence time (first tick from which the
// worst server deficit stays within P_min for 20 consecutive ticks).
//
// The run errors if integral or mpc violates the true 70 °C limit:
// both clamp their caps to the Eq. 3 envelope, so with safe-side
// sensing their safety must match the paper controller's.
func runBakeoff(opts Options) (*Result, error) {
	chaosSeed := opts.ChaosSeed
	if chaosSeed == 0 {
		chaosSeed = defaultChaosSeed
	}
	tb := metrics.NewTable(
		"Controller-policy bake-off (U=70%, medium chaos + medium sensor faults, robust sensing)",
		"policy", "violations (true)", "max true temp (°C)",
		"work (kJ)", "work/J", "migrations", "convergence (ticks)",
	)
	notes := []string{
		"identical plans per row: same seed, same chaos schedule, same sensor faults, same demand — only the controller policy differs",
		fmt.Sprintf("convergence = first tick from which max server deficit stays within P_min for %d consecutive ticks", convWindow),
	}
	for _, pol := range bakeoffPolicies {
		cfg := cluster.PaperConfig(0.7)
		shortenFor(opts)(&cfg)
		cfg.Policy = pol
		if _, err := cluster.ApplyChaos(&cfg, "medium,sensor-medium", chaosSeed); err != nil {
			return nil, err
		}
		r, cells, err := bakeoffRow(cfg)
		if err != nil {
			return nil, err
		}
		if pol != "willow" && r.LimitViolationTicks > 0 {
			return nil, fmt.Errorf("bakeoff: policy %q violated the true thermal limit for %d server-ticks (max %.1f °C) under the sensor-fault plan",
				pol, r.LimitViolationTicks, r.MaxTemp)
		}
		tb.AddRow(append([]string{pol}, cells...)...)
		if pol == "willow" {
			notes = append(notes, fmt.Sprintf("willow baseline: %d violations, %.3f work/J, %d migrations",
				r.LimitViolationTicks, r.Energy.Fleet.WorkPerJoule(),
				r.DemandMigrations+r.ConsolidationMigrations))
		}
	}
	return &Result{Table: tb, Notes: notes}, nil
}

// runBakeoffStress is the demand-side counterpart: 85 % utilization
// under a swinging sine supply with the medium machine-chaos schedule
// and clean sensors. Here the policies differ most in how budget
// division and migration triggers track the moving supply — cap
// violations stay zero for everyone (sensors tell the truth), so the
// table reads on throughput, churn and convergence.
func runBakeoffStress(opts Options) (*Result, error) {
	chaosSeed := opts.ChaosSeed
	if chaosSeed == 0 {
		chaosSeed = defaultChaosSeed
	}
	tb := metrics.NewTable(
		"Controller-policy bake-off under supply swings (U=85%, sine supply, medium chaos)",
		"policy", "violations (true)", "max true temp (°C)",
		"work (kJ)", "work/J", "migrations", "convergence (ticks)",
	)
	notes := []string{
		"sine supply: base 80 % of rated, ±25 % swing, period 24 ticks — the budget chases the trough while demand pushes the ceiling",
	}
	for _, pol := range bakeoffPolicies {
		cfg := cluster.PaperConfig(0.85)
		shortenFor(opts)(&cfg)
		cfg.Policy = pol
		rated := 18 * cfg.ServerPower.Peak
		cfg.Supply = power.Sine{Base: rated * 0.8, Amplitude: rated * 0.25, Period: 24}
		if _, err := cluster.ApplyChaos(&cfg, "medium", chaosSeed); err != nil {
			return nil, err
		}
		_, cells, err := bakeoffRow(cfg)
		if err != nil {
			return nil, err
		}
		tb.AddRow(append([]string{pol}, cells...)...)
	}
	return &Result{Table: tb, Notes: notes}, nil
}
