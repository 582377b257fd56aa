// Package baseline defines the comparison controllers used by the
// ablation benchmarks: variants of the Willow configuration that disable
// one design choice at a time, so each bench isolates that choice's
// contribution (DESIGN.md's ablation index).
//
// All variants run on the same simulator and workload; only the control
// policy differs:
//
//	Willow       — the full scheme (reference).
//	NoControl    — no migrations at all: deficits are shed where they
//	               arise. The "do nothing" floor.
//	NoMargin     — migrations without the P_min hysteresis margin,
//	               demonstrating the churn the margin prevents.
//	LocalOnly    — migrations restricted to siblings; no escalation up
//	               the hierarchy, so imbalances across racks persist.
//	Centralized  — a flat, single-level hierarchy: one controller sees
//	               every server directly. Matches Willow's solution
//	               quality (the paper's Property 2) but concentrates all
//	               control messages on the root.
//	Oracle       — Willow fed a one-epoch supply forecast; adaptation
//	               completes before a change lands instead of after.
package baseline

import (
	"fmt"

	"willow/internal/cluster"
	"willow/internal/power"
)

// Variant names one comparison controller.
type Variant string

// The supported variants.
const (
	Willow      Variant = "willow"
	NoControl   Variant = "no-control"
	NoMargin    Variant = "no-margin"
	LocalOnly   Variant = "local-only"
	Centralized Variant = "centralized"
	// Oracle is Willow fed a one-epoch supply forecast: budgets tighten
	// before a plunge actually lands, so adaptation completes in advance.
	Oracle Variant = "oracle"
)

// Configure mutates a cluster configuration to implement the variant.
func Configure(v Variant, cfg *cluster.Config) error {
	switch v {
	case Willow:
		// Reference: leave the paper configuration untouched.
	case NoControl:
		// An unreachable margin makes every migration infeasible, and the
		// (effectively) zero threshold stops consolidation.
		cfg.Core.PMin = 1e12
		cfg.Core.ConsolidateBelow = 1e-12
	case NoMargin:
		// A vanishing margin removes the hysteresis; a 1-tick ping-pong
		// window effectively disables the anti-return guard so the
		// resulting churn is observable.
		cfg.Core.PMin = 1e-9
		cfg.Core.PingPongWindow = 1
	case LocalOnly:
		cfg.Core.LocalOnly = true
	case Centralized:
		// Flatten the hierarchy: every server is a direct child of the
		// root, so one controller makes all decisions.
		n := 1
		for _, f := range cfg.Fanout {
			n *= f
		}
		cfg.Fanout = []int{n}
	case Oracle:
		cfg.Supply = power.Foresight{S: cfg.Supply, Epochs: 1}
	default:
		return fmt.Errorf("baseline: unknown variant %q", v)
	}
	return nil
}

// Run executes one variant at the given utilization on the paper
// configuration (with the caller's modifications applied first).
func Run(v Variant, utilization float64, modify func(*cluster.Config)) (*cluster.Result, error) {
	cfg := cluster.PaperConfig(utilization)
	if modify != nil {
		modify(&cfg)
	}
	if err := Configure(v, &cfg); err != nil {
		return nil, err
	}
	return cluster.Run(cfg)
}

// Compare runs every requested variant on identical workloads and
// returns the results keyed by variant.
func Compare(variants []Variant, utilization float64, modify func(*cluster.Config)) (map[Variant]*cluster.Result, error) {
	out := make(map[Variant]*cluster.Result, len(variants))
	for _, v := range variants {
		r, err := Run(v, utilization, modify)
		if err != nil {
			return nil, fmt.Errorf("baseline %s: %w", v, err)
		}
		out[v] = r
	}
	return out, nil
}
