package core

import (
	"willow/internal/telemetry"
	"willow/internal/topo"
)

// allocateResilient implements the supply-side adaptation of Section
// IV-D: the available budget is divided top-down, at each node
// proportionally to the children's smoothed demands, subject to each
// child's hard constraints (thermal + circuit caps). Budget that capped
// children cannot absorb is redistributed to their siblings (waterfill);
// leftover beyond all demands is allocated proportionally to demand as
// well ("if surplus is still available ... the surplus budget is
// allocated to its children nodes proportional to their demand").
// Supply traces are indexed by supply epoch (t / η1), so a 30-entry trace
// spans 30 supply windows regardless of η1.
//
// Each node's reduced flag records whether this event lowered its budget;
// the demand side uses it to enforce the unidirectional rule.
//
// It is the only allocation pass, and it divides budget down the live
// portion of the tree. window turns on the lease bookkeeping of a real
// supply window (Δ_S, degraded.go): directives pass through the budget
// pipes, draw loss, refresh leases, and the nodes that heard nothing
// age and decay. Step sets it only while the resilient control plane is
// armed (resilienceEnabled); mid-tick re-derivations (drain-to-sleep,
// consolidation, transfer landing) always pass false, delivering
// directly and leaving every lease untouched. With window false and no
// PMU failed, every node hears its directive and the pass is the
// paper's fail-free division.
//
// The pass runs in three stages, top-down:
//
//  1. If the root is alive it takes the fresh supply and recurses
//     through alive PMUs, delivering directives along the way.
//  2. Alive internal nodes that heard nothing — parent dead, or their
//     directive lost or still in a pipe — age their lease (entering
//     degraded mode and decaying toward their floor when it expires)
//     and then allocate their held budget to their children
//     autonomously. Levels are visited root-down so an autonomous
//     node's own directives land before its children are examined.
//  3. Awake servers that heard nothing age their leases the same way.
//
// A rack PMU (level 1) divides its budget using only its own servers'
// demands and hard caps, so once every rack holds its budget the racks'
// divisions are independent. The stages therefore run in two parts.
// The serial part runs stages 1 and 2 above the racks and, wherever a
// rack would be granted or allocate autonomously, records a rack task
// instead (addRackTask). Every shard then runs its own racks' tasks and
// stage 3 for its own servers (allocateRacks), and the merge publishes
// everything in the order the whole pass would have (mergeAllocation).
// Three orders make that exact: a task's events splice in at the point
// its rack's grant would have run, the serial part makes the loss draws
// of a rack's server directives itself, and every shared counter is an
// integer.
func (c *Controller) allocateResilient(t int, window bool) {
	p := &c.alloc
	p.t, p.window = t, window
	p.tasks = p.tasks[:0]
	up := &p.upper
	up.resetAlloc()
	clear(c.delivered)
	c.sumSubtrees()

	if root := c.Tree.Root; !c.failedPMU[root.ID] {
		// The root draws straight from the supply feed; its lease is
		// perpetually fresh and it can never be degraded.
		c.hear(up, root, c.Supply.At(t/c.Cfg.Eta1), 0)
	}
	for level := c.Tree.Height; level >= 2; level-- {
		for _, n := range c.levels[level] {
			if c.delivered[n.ID] || c.failedPMU[n.ID] {
				continue
			}
			if window {
				c.agePMULease(up, n, t)
			}
			c.allocateChildren(up, n)
		}
	}
	for _, n := range c.levels[1] {
		if !c.delivered[n.ID] && !c.failedPMU[n.ID] {
			c.addRackTask(n, 0, 0, false)
		}
	}

	c.shards.run(c.allocateRacksFn)
	c.mergeAllocation()
}

// allocPass is what one allocation pass's serial part and its sharded
// rack phase share.
type allocPass struct {
	t      int
	window bool
	// tasks are the rack tasks in the order the whole pass would have
	// reached them; upper holds the serial part's events and counters.
	tasks []rackTask
	upper shardOut
	// lost holds, per server, whether the loss draw of this pass's
	// directive to it came up lost (loss windows only).
	lost []bool
}

// rackTask is one rack PMU's share of an allocation pass, recorded by
// the serial part and run by the shard that owns the rack.
type rackTask struct {
	rack *topo.Node
	// granted: the rack heard the directive tp, carrying its parent's
	// budget parentTP. Otherwise it heard nothing and allocates its held
	// budget autonomously.
	granted      bool
	tp, parentTP float64
	// mark counts the serial part's events published before this
	// task's; shard and [start, end) locate its own events in that
	// shard's output.
	mark, shard, start, end int
}

// addRackTask records rack n's share of the pass: granted with the
// directive it heard, or autonomous. A granted rack is marked delivered
// here, so stage 2 sees it as it would after the grant. On a loss
// window every server directive of the rack draws once from the shared
// stream; the draws are made here, in child order, where the grant
// would have made them, and deliverServer reads them back.
func (c *Controller) addRackTask(n *topo.Node, tp, parentTP float64, granted bool) {
	p := &c.alloc
	if granted {
		c.delivered[n.ID] = true
	}
	p.tasks = append(p.tasks, rackTask{
		rack: n, granted: granted, tp: tp, parentTP: parentTP,
		mark: len(p.upper.events),
	})
	if loss := c.Cfg.BudgetLoss; p.window && loss > 0 {
		first := n.Children[0].ServerIndex
		for j := first; j < first+len(n.Children); j++ {
			p.lost[j] = c.src.Float64() < loss
		}
	}
}

// allocateRacks is the allocation pass's sharded phase over servers
// [lo, hi): it runs the tasks of the shard's racks — the grant or lease
// aging, the division and the delivery to each server — and then, on a
// window, ages the leases of the shard's awake servers that heard
// nothing. Everything it would publish or count goes into the shard's
// output; each rack writes only its own node's and its servers' slots.
func (c *Controller) allocateRacks(shard, lo, hi int) {
	p := &c.alloc
	out := &c.out[shard]
	out.resetAlloc()
	for i := range p.tasks {
		task := &p.tasks[i]
		if first := task.rack.Children[0].ServerIndex; first < lo || first >= hi {
			continue
		}
		task.shard, task.start = shard, len(out.events)
		if task.granted {
			c.grantPMU(out, task.rack, task.tp, task.parentTP)
		} else {
			if p.window {
				c.agePMULease(out, task.rack, p.t)
			}
			c.allocateChildren(out, task.rack)
		}
		task.end = len(out.events)
	}
	out.aged = len(out.events)
	if !p.window {
		return
	}
	for j := lo; j < hi; j++ {
		if !c.delivered[c.internalNodes+j] && !c.hot.asleep[j] {
			c.ageServerLease(out, c.Servers[j], p.t)
		}
	}
}

// mergeAllocation folds what the pass's parts left, in the order the
// whole pass would have produced it: the serial part's events with each
// rack task's events spliced in at its mark, then every shard's
// lease-aging events in shard order (server order). Counters are
// integers, so their sums do not depend on order.
func (c *Controller) mergeAllocation() {
	p := &c.alloc
	up := &p.upper
	c.down.add(up.down)
	c.Stats.LeaseExpiries += up.leaseExpiries
	for k := range c.out {
		c.down.add(c.out[k].down)
		c.Stats.LeaseExpiries += c.out[k].leaseExpiries
	}
	if c.Sink == nil {
		return // nothing was buffered
	}
	next := 0
	for _, task := range p.tasks {
		c.publishAll(up.events[next:task.mark])
		c.publishAll(c.out[task.shard].events[task.start:task.end])
		next = task.mark
	}
	c.publishAll(up.events[next:])
	for k := range c.out {
		out := &c.out[k]
		c.publishAll(out.events[out.aged:])
	}
}

// allocateChildren divides node's held budget among its children and
// delivers the shares as directives.
func (c *Controller) allocateChildren(out *shardOut, node *topo.Node) {
	if node.IsLeaf() {
		return
	}
	budget := c.pmuTP[node.ID]
	sc := c.scratch[node.ID]
	if node.Level == 1 {
		sc = out.rack
	}
	alloc := c.computeChildAllocations(sc, node, budget)
	if node.Level == 1 {
		first := node.Children[0].ServerIndex
		for i, v := range alloc {
			c.deliverServer(out, first+i, v, budget)
		}
		return
	}
	for i, ch := range node.Children {
		c.deliverPMU(out, ch, alloc[i], budget)
	}
}

// deliverPMU sends one downward budget directive over the link to the
// PMU n, through the budget pipe (latency, loss) on lease-bookkeeping
// windows. A delivered directive is heard (hear); an undelivered one
// leaves n to the autonomous stages of allocateResilient. Directives to
// dead PMUs go nowhere.
func (c *Controller) deliverPMU(out *shardOut, n *topo.Node, v, parentTP float64) {
	if c.failedPMU[n.ID] {
		return // a dead PMU hears nothing; its span rides its leases
	}
	p := &c.alloc
	c.countDown(&out.down, n)
	msg := budgetMsg{tp: v, parentTP: parentTP, ok: true}
	if p.window && (c.Cfg.BudgetLatency > 0 || c.Cfg.BudgetLoss > 0) {
		if loss := c.Cfg.BudgetLoss; loss > 0 {
			msg.ok = !(c.src.Float64() < loss)
		}
		msg = c.budgetPipeFor(n.ID).push(msg)
	}
	if msg.ok {
		c.hear(out, n, msg.tp, msg.parentTP)
	}
}

// deliverServer is deliverPMU for the directive to server j, whose loss
// draw its rack task made. A delivered directive applies the budget and
// publishes the BudgetChange event; on a window it also refreshes the
// server's lease and clears degradation. It reads and writes only the
// server's slots — its parent is the live rack running the task — so a
// rack's delivery streams the slabs.
func (c *Controller) deliverServer(out *shardOut, j int, v, parentTP float64) {
	p, h := &c.alloc, c.hot
	id := c.internalNodes + j
	c.stampDown(&out.down, id, true)
	msg := budgetMsg{tp: v, parentTP: parentTP, ok: true}
	if p.window && (c.Cfg.BudgetLatency > 0 || c.Cfg.BudgetLoss > 0) {
		if c.Cfg.BudgetLoss > 0 {
			msg.ok = !p.lost[j] // drawn by addRackTask
		}
		msg = c.budgetPipeFor(id).push(msg)
	}
	if !msg.ok {
		return // lost in transit: the server's lease ages
	}
	c.delivered[id] = true
	prev := h.tp[j]
	reduced := c.isReduced(msg.tp, prev, h.cp[j])
	h.reduced[j] = reduced
	h.tp[j] = msg.tp
	if p.window {
		s := c.Servers[j]
		s.leaseTick = p.t
		s.lastParentTP = msg.parentTP
		c.clearServerDegraded(out, s, p.t)
	}
	if c.Sink != nil {
		out.events = append(out.events, telemetry.Event{
			Tick: p.t, Kind: telemetry.KindBudgetChange,
			Node: id, Server: j,
			Watts: msg.tp, Prev: prev, Demand: h.cp[j],
			Reduced: reduced,
		})
	}
}

// hear passes a budget heard by the live PMU n — the supply for the
// root, a delivered directive for any other — to its grant: run at
// once above the racks, recorded as a rack task at a rack.
func (c *Controller) hear(out *shardOut, n *topo.Node, tp, parentTP float64) {
	if n.Level == 1 {
		c.addRackTask(n, tp, parentTP, true)
		return
	}
	c.grantPMU(out, n, tp, parentTP)
}

// grantPMU applies a budget heard by the live PMU n and divides it
// among n's children. parentTP is the parent's budget the directive
// carried.
func (c *Controller) grantPMU(out *shardOut, n *topo.Node, tp, parentTP float64) {
	p := &c.alloc
	id := n.ID
	c.delivered[id] = true
	prev := c.pmuTP[id]
	c.pmuReduced[id] = c.isReduced(tp, prev, c.pmuCP[id])
	c.pmuTP[id] = tp
	if p.window {
		c.pmuLeaseTick[id] = p.t
		c.pmuLastParentTP[id] = parentTP
		c.clearPMUDegraded(out, n, p.t)
	}
	if c.Sink != nil {
		out.events = append(out.events, telemetry.Event{
			Tick: p.t, Kind: telemetry.KindBudgetChange,
			Node: id, Level: n.Level,
			Watts: tp, Prev: prev, Demand: c.pmuCP[id],
			Reduced: c.pmuReduced[id],
		})
	}
	c.allocateChildren(out, n)
}

// isReduced implements the unidirectional rule's trigger: a node counts
// as "budget reduced by the event" when the new budget is lower than
// before AND leaves the node without comfortable headroom over its
// demand. A node whose budget shrank in watts but still exceeds demand by
// the P_min margin can absorb migrations — which is how the paper's own
// experiments route work toward lightly loaded servers during a global
// supply plunge (Section V-C4).
func (c *Controller) isReduced(newTP, oldTP, cp float64) bool {
	return newTP < oldTP-tolerance && newTP < cp+c.Cfg.PMin-tolerance
}

// computeChildAllocations runs the three allocation rounds for one
// internal node in the scratch buffers sc and returns the per-child
// budgets (backed by sc — valid until sc's next division). Fresh
// directives and degraded autonomous allocation both divide budget
// through here, so the two are arithmetically identical.
func (c *Controller) computeChildAllocations(sc *allocScratch, node *topo.Node, budget float64) []float64 {
	children := node.Children
	n := len(children)
	demands, caps, floors := sc.demands[:n], sc.caps[:n], sc.floors[:n]
	alloc, active := sc.alloc[:n], sc.active[:n]
	if node.Level == 1 {
		// A rack's children are the servers first, first+1, … in child
		// order.
		first := children[0].ServerIndex
		for i := range children {
			demands[i] = c.serverDemand(first + i)
			caps[i], floors[i] = c.serverCapFloor(first + i)
		}
	} else {
		for i, ch := range children {
			demands[i] = c.pmuCP[ch.ID]
			caps[i], floors[i] = c.subCap[ch.ID], c.subFloor[ch.ID]
		}
	}
	var floorSum float64
	for i, f := range floors {
		if f > caps[i] {
			f = caps[i]
			floors[i] = f
		}
		floorSum += f
	}

	// Budget-division seam: a bound policy may take over the division
	// entirely (core still clamps the result into the hard envelope); a
	// declining policy falls through to the paper's three rounds below.
	if c.pol != nil && c.pol.DivideBudget(node.Level, budget, demands, caps, floors, alloc) {
		clampDivision(alloc, budget, caps)
		return alloc
	}

	// Round 0: static floors. An awake server draws its static power no
	// matter what, so floors are funded before any dynamic demand. If
	// even the floors exceed the budget the children split it floor-
	// proportionally — a regime only escapable by putting servers to
	// sleep, which the demand side's drain-to-sleep path handles.
	if floorSum > budget {
		waterfill(alloc, budget, floors, floors, active)
		return alloc
	}
	copy(alloc, floors)
	remaining := budget - floorSum

	// Round A: meet dynamic demand above the floors, proportionally
	// (waterfill handles children whose caps bind).
	dynWants := sc.wants[:n]
	var dynSum float64
	for i := range children {
		w := demands[i]
		if w > caps[i] {
			w = caps[i]
		}
		w -= floors[i]
		if w < 0 {
			w = 0
		}
		dynWants[i] = w
		dynSum += w
	}
	leftover := remaining
	if dynSum <= remaining {
		for i := range alloc {
			alloc[i] += dynWants[i]
		}
		leftover = remaining - dynSum
	} else {
		extra := waterfill(sc.extra[:n], remaining, dynWants, dynWants, active)
		for i := range alloc {
			alloc[i] += extra[i]
		}
		leftover = 0
	}

	// Round B: distribute leftover proportionally to demand up to the
	// hard caps. Budget beyond every cap stays stranded at this node.
	if leftover > tolerance {
		head := sc.head[:n]
		for i := range children {
			head[i] = caps[i] - alloc[i]
		}
		extra := waterfill(sc.extra[:n], leftover, demands, head, active)
		for i := range alloc {
			alloc[i] += extra[i]
		}
	}

	return alloc
}

// sumSubtrees refreshes every internal node's subtree hard cap and
// static floor in one bottom-up pass, run once per allocation pass
// before any budget is divided: the racks in a sharded phase (each
// shard sums its own racks' servers), the levels above them serially.
// Each node sums its children in child order from zero — the order a
// recursive descent adds them in, and the order aggregate() uses for
// demand — so every sum is bit-identical to recursing through the
// subtree at each level, at a single visit per node. Nothing an
// allocation pass does (budgets, reduced flags, lease state) moves a
// hard cap or a sleep flag, so the sums hold for the whole pass.
func (c *Controller) sumSubtrees() {
	c.shards.run(c.sumRacksFn)
	for level := 2; level <= c.Tree.Height; level++ {
		for _, n := range c.levels[level] {
			c.sumChildren(n)
		}
	}
}

// sumRacks is sumSubtrees's sharded phase: it sums the racks of the
// given shard.
func (c *Controller) sumRacks(shard, _, _ int) {
	for _, n := range c.shards.plan[shard].racks {
		c.sumChildren(n)
	}
}

// sumChildren sets n's subtree hard cap and static floor from its
// children's, added in child order from zero.
func (c *Controller) sumChildren(n *topo.Node) {
	var cap, floor float64
	if n.Level == 1 {
		first := n.Children[0].ServerIndex
		for j := first; j < first+len(n.Children); j++ {
			chCap, chFloor := c.serverCapFloor(j)
			cap += chCap
			floor += chFloor
		}
	} else {
		for _, ch := range n.Children {
			cap += c.subCap[ch.ID]
			floor += c.subFloor[ch.ID]
		}
	}
	c.subCap[n.ID], c.subFloor[n.ID] = cap, floor
}

// serverCapFloor returns server j's hard constraint and static floor as
// its rack divides budget: its hard cap and static power, or nothing
// while it sleeps — a sleeping server cannot spend budget and burns no
// static power.
func (c *Controller) serverCapFloor(j int) (cap, floor float64) {
	h := c.hot
	if h.asleep[j] {
		return 0, 0
	}
	return h.hardCap[j], h.static[j]
}
