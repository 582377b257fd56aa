package core

import (
	"math"
	"testing"

	"willow/internal/dist"
	"willow/internal/power"
	"willow/internal/topo"
)

// FuzzIncrementalAggregation drives a random topology through a random
// sequence of demand writes, PMU failures/repairs, report-loss windows
// and aggregation passes, and checks the incremental dirty-subtree
// aggregator against the full-recompute oracle bit-for-bit at every
// synchronization point. Two controllers share the op sequence; the
// oracle marks every PMU dirty before each pass — which makes the pass
// the paper's full per-Δ_D recompute — so any divergence is an
// aggregation bug by construction.
func FuzzIncrementalAggregation(f *testing.F) {
	f.Add([]byte{2, 3, 0, 1, 2, 3, 0, 5, 2, 7})
	f.Add([]byte{4, 2, 3, 3, 0, 1, 1, 0, 3, 0, 2, 0, 3, 0})
	f.Add([]byte{3, 3, 1, 200, 2, 200, 3, 0, 0, 50, 3, 0})
	// A loss window left the PMU CPs on pipe-derived values; closing it
	// must re-sum the whole tree (SetLinkLoss).
	f.Add([]byte{0, 0, 4, 3, 3, 0, 0, 1, 3, 0, 0, 3, 3, 0, 4, 0, 3, 0})

	build := func(fanout []int) *Controller {
		tree, err := topo.Build(fanout)
		if err != nil {
			return nil
		}
		specs := make([]ServerSpec, tree.NumServers())
		for i := range specs {
			specs[i] = serverSpec(50, 250, 0, 10, 20)
		}
		c, err := New(tree, uniqueIDs(specs), power.Constant(1e6), quietCfg(), dist.NewSource(7))
		if err != nil {
			return nil
		}
		return c
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		// First 1-3 bytes pick the fanout: 1-3 levels, 2-4 wide each.
		levels := 1 + int(data[0])%3
		if len(data) < levels+1 {
			return
		}
		fanout := make([]int, levels)
		for i := range fanout {
			fanout[i] = 2 + int(data[1+i])%3
		}
		inc := build(fanout)
		full := build(fanout)
		if inc == nil || full == nil {
			return
		}
		pmus := make([]int, 0, len(inc.Tree.Nodes))
		for _, n := range inc.Tree.Nodes {
			if !n.IsLeaf() {
				pmus = append(pmus, n.ID)
			}
		}

		check := func(step int) {
			inc.aggregate()
			full.markAllDirty()
			full.aggregate()
			for _, id := range pmus {
				a, b := inc.pmuCP[id], full.pmuCP[id]
				if math.Float64bits(a) != math.Float64bits(b) {
					t.Fatalf("op %d: node %d incremental CP %v != oracle %v", step, id, a, b)
				}
			}
		}

		ops := data[1+levels:]
		for i := 0; i+1 < len(ops); i += 2 {
			op, arg := ops[i]%5, int(ops[i+1])
			switch op {
			case 0: // write a server's smoothed demand
				s := inc.Servers[arg%len(inc.Servers)]
				v := float64(arg) * 1.5
				s.setCP(v)
				full.Servers[arg%len(full.Servers)].setCP(v)
			case 1: // crash a PMU (freezes its aggregate on both sides)
				id := pmus[arg%len(pmus)]
				inc.FailPMU(id)
				full.FailPMU(id)
			case 2: // repair it (forces a re-sum on the incremental side)
				id := pmus[arg%len(pmus)]
				inc.RepairPMU(id)
				full.RepairPMU(id)
			case 3: // synchronize and compare against the oracle
				check(i)
			case 4: // open or close a report-loss window on both sides
				loss := 0.0
				if !inc.asyncEnabled() {
					loss = float64(1+arg%4) / 5
				}
				inc.SetLinkLoss(loss, 0)
				full.SetLinkLoss(loss, 0)
			}
		}
		// Repair everything so the final pass exercises the post-repair
		// re-sum, then compare one last time.
		for _, id := range pmus {
			inc.RepairPMU(id)
			full.RepairPMU(id)
		}
		check(len(ops))
	})
}
