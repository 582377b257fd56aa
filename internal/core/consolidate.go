package core

import "sort"

// consolidate is the Δ_A-cadence resource-consolidation pass
// (Sections IV-C and IV-E): servers whose dynamic utilization sits below
// the threshold are drained — all their applications migrated into other
// servers' budget surpluses, local targets first — and put into a deep
// sleep state, eliminating their static draw. A candidate that cannot be
// fully drained is left untouched (partial drains save nothing and cost
// migrations).
//
// Candidates are processed in ascending utilization order and candidacy
// is re-checked as demand lands on receivers, so at globally low
// utilization the pass packs many servers onto few rather than refusing
// to act because "everyone is a candidate".
func (c *Controller) consolidate(t int) {
	// The scan runs sharded; joined in shard order, which is server
	// order, the candidates reach the sort the same for any shard count.
	c.shards.run(c.candidatesFn)
	candidates := c.out[0].candidates
	for k := 1; k < len(c.out); k++ {
		candidates = append(candidates, c.out[k].candidates...)
	}
	c.out[0].candidates = candidates
	// Thermally squeezed servers first — "Willow tries to move as much
	// work away from these servers as possible due to their high
	// temperatures" (the paper's Fig. 7 discussion) — then the biggest
	// idle draw (sleeping a power-hungry-at-idle server saves the most;
	// in a heterogeneous fleet this drains conventional servers before
	// FAWN-style wimpy nodes), then emptiest first.
	sort.SliceStable(candidates, func(i, j int) bool {
		a, b := candidates[i], candidates[j]
		ca := a.Thermal.Model.SteadyStatePowerLimit()
		cb := b.Thermal.Model.SteadyStatePowerLimit()
		if ca != cb {
			return ca < cb
		}
		if a.Power.Static != b.Power.Static {
			return a.Power.Static > b.Power.Static
		}
		if da, db := c.viewDynamic(a), c.viewDynamic(b); da != db {
			return da < db
		}
		return a.Node.ServerIndex < b.Node.ServerIndex
	})

	slept := 0
	for _, victim := range candidates {
		// Re-check: earlier drains may have raised this server's load
		// above the threshold, or slept it (it cannot have slept — only
		// candidates sleep and each is visited once — but demand may have
		// landed on it).
		if victim.Asleep() || !c.consolidateEligible(victim, c.viewUtilization(victim)) {
			continue
		}
		if len(c.Servers)-c.AsleepCount() <= 1 {
			break // never consolidate the last server away
		}
		if c.viewDeficit(victim) > tolerance {
			continue // a struggling server is the demand pass's problem
		}
		if c.transferTouches(victim) {
			continue // an endpoint of an in-flight transfer must stay up
		}

		ws := c.workingSurpluses()
		ws.cand[victim.Node.ServerIndex] = false
		items := make([]item, 0, victim.Apps.Len())
		for _, a := range victim.Apps.Apps {
			items = append(items, item{app: a, src: victim})
		}
		c.draining[victim.Node.ServerIndex] = true
		plan, rest := c.planPlacement(items, ws, false, true)
		if len(rest) > 0 {
			delete(c.draining, victim.Node.ServerIndex)
			continue // cannot fully drain; leave it running
		}
		c.applyAssignments(plan, CauseConsolidation, t)
		delete(c.draining, victim.Node.ServerIndex)
		if c.sleepOrDefer(victim) {
			slept++
		}
	}
	if slept > 0 {
		// One budget re-derivation after the pass (not per victim):
		// sleeping servers freed their static floors for everyone else.
		c.allocateResilient(t, false)
	}
}

// candidateShard is consolidate's candidate scan over servers [lo, hi),
// into the shard's buffer in server order. It writes nothing shared.
func (c *Controller) candidateShard(shard, lo, hi int) {
	out := &c.out[shard]
	candidates := out.candidates[:0]
	for _, s := range c.Servers[lo:hi] {
		if s.Asleep() || s.wakeAt >= 0 {
			continue
		}
		if c.failedPMUCount > 0 && c.underDeadPMU(s.Node) {
			continue // a dead span cannot coordinate its own drain
		}
		// Consolidation-trigger seam (policy.go): the built-in rule
		// drains servers running below the utilization threshold.
		if c.consolidateEligible(s, c.viewUtilization(s)) {
			candidates = append(candidates, s)
		}
	}
	out.candidates = candidates
}

// viewUtilization is the server's dynamic utilization as its parent
// sees it: the consolidation trigger's input.
func (c *Controller) viewUtilization(s *Server) float64 {
	d := s.Power.Peak - s.Power.Static
	if d <= 0 {
		return 0
	}
	return c.viewDynamic(s) / d
}
