package core

// Policy plugs an alternative controller into Willow's three control
// seams — budget division across children, the per-server throttle cap,
// and the migration/consolidation triggers — while everything around
// the seams (tree aggregation, waterfills below the hooks, QoS
// settlement, thermal integration, telemetry) stays shared. Concrete
// policies live in internal/policy; core only defines the cut.
//
// Contract:
//
//   - Determinism. A policy must be a pure function of the controller
//     state it reads plus its own state; it must never read wall clock,
//     draw randomness, or consume the controller's random streams. The
//     fleet determinism contract (byte-identical runs for any worker or
//     shard count, across snapshot/restore and replication) extends to
//     every policy.
//   - Delegation. Every hook can decline (return false / ok=false), in
//     which case the built-in Willow arithmetic runs bit-for-bit. A
//     policy that declines everything — policy.Willow — is
//     byte-identical to leaving Config.Policy nil.
//   - Sharding. Every hook is called from the parallel tick phases:
//     ThermalCap from the consume phase, PeelTarget from the
//     demand-migration deficit scan, ConsolidateEligible from the
//     consolidation candidate scan, DivideBudget at rack PMUs (level 1)
//     from the allocation pass's rack phase. ThermalCap, PeelTarget and
//     ConsolidateEligible may touch only state private to the server
//     passed in (per-server slots indexed by Server.Index);
//     DivideBudget may write only its alloc argument, at every level.
//   - Ownership. A policy instance is stateful and owned by exactly one
//     Controller: Bind is called once, during New. Never share an
//     instance across controllers; rebuild from its Spec instead.
type Policy interface {
	// Spec returns the canonical spec string (internal/policy syntax)
	// that reconstructs this policy — what snapshots record so
	// restore/replication rebuild the identical controller.
	Spec() string

	// Bind attaches the policy to its controller at construction time,
	// after servers are built. Stateful policies size their per-server
	// state here.
	Bind(c *Controller)

	// DivideBudget divides budget across one internal node's children,
	// filling alloc (one slot per child, same order as demands).
	// demands are the children's smoothed subtree demands, caps their
	// hard-constraint ceilings, floors their funded static minimums
	// (already clamped to caps). Returning false delegates to the
	// built-in proportional waterfill. Core clamps the result into
	// [0, caps] and rescales if it overspends budget, so a policy can
	// never violate the hard constraints. Racks divide in parallel, so
	// an implementation writes nothing but alloc.
	DivideBudget(level int, budget float64, demands, caps, floors, alloc []float64) bool

	// ThermalCap returns the server's thermal power cap (watts) for the
	// configured adjustment window, given the observed temperature.
	// Returning ok=false keeps the built-in Eq. 3 one-step inversion
	// (Server.Eq3Limit). It is invoked whenever the cached hard cap
	// refreshes — once per server per tick on the consume path.
	ThermalCap(s *Server, tobs float64) (cap float64, ok bool)

	// PeelTarget decides the migration trigger: given a server's
	// current deficit (Eq. 5, net of outbound transfers), it returns
	// how many watts of demand the server should peel off for
	// migration; target <= 0 peels nothing. Returning ok=false keeps
	// the built-in rule (peel iff deficit > PMin, target = deficit +
	// PMin). The deficit scan runs sharded, so an implementation
	// touches only s's own slots.
	PeelTarget(s *Server, deficit float64) (target float64, ok bool)

	// ConsolidateEligible decides the consolidation trigger: whether an
	// awake server running at the given dynamic utilization should be
	// drained and slept this Δ_A pass. Returning ok=false keeps the
	// built-in rule (utilization < ConsolidateBelow). The candidate scan
	// runs sharded, so an implementation touches only s's own slots.
	ConsolidateEligible(s *Server, util float64) (eligible bool, ok bool)
}

// peelTarget applies the migration-trigger seam: how many watts s
// should peel given deficit def; <= 0 means none. The nil-policy path
// reproduces the built-in rule bit for bit.
func (c *Controller) peelTarget(s *Server, def float64) float64 {
	if c.pol != nil {
		if target, ok := c.pol.PeelTarget(s, def); ok {
			return target
		}
	}
	if def <= c.Cfg.PMin {
		return 0
	}
	return def + c.Cfg.PMin
}

// consolidateEligible applies the consolidation-trigger seam.
func (c *Controller) consolidateEligible(s *Server, util float64) bool {
	if c.pol != nil {
		if eligible, ok := c.pol.ConsolidateEligible(s, util); ok {
			return eligible
		}
	}
	return util < c.Cfg.ConsolidateBelow
}

// clampDivision enforces the hard envelope on a policy-made division:
// each child inside [0, cap], and the total never above budget (scaled
// down proportionally if the policy overspent). The built-in path never
// goes through here.
func clampDivision(alloc []float64, budget float64, caps []float64) {
	var sum float64
	for i := range alloc {
		v := alloc[i]
		if v < 0 || v != v { // negative or NaN
			v = 0
		}
		if v > caps[i] {
			v = caps[i]
		}
		alloc[i] = v
		sum += v
	}
	if sum > budget+tolerance && sum > 0 {
		scale := budget / sum
		if scale < 0 {
			scale = 0
		}
		for i := range alloc {
			alloc[i] *= scale
		}
	}
}

// LeaseFloor returns the server's autonomous safe-floor budget before
// any hard-cap clamp: its static draw plus an equal share of the last
// parent budget it heard (zero until a budget directive carries one).
// This is the quantity expired budget leases decay toward (degraded.go)
// and the anti-windup floor of the integral policy.
func (c *Controller) LeaseFloor(s *Server) float64 {
	return s.Power.Static + c.fairShare(s.Node, s.lastParentTP)
}
