package core

import (
	"willow/internal/telemetry"
	"willow/internal/topo"
)

// Resilient control plane: budget leases and degraded autonomous mode.
//
// The paper's convergence analysis assumes the control hierarchy itself
// never fails; failure.go removed that assumption for servers, async.go
// for the upward report path. This file removes it for the rest: the
// downward budget path (Config.BudgetLatency / BudgetLoss mirror the
// report pipes) and the PMU nodes themselves (Controller.FailPMU).
//
// Every downward budget directive doubles as a lease of
// Config.BudgetLeaseTicks. A node — server or PMU — that has not heard
// from its parent within the lease enters degraded mode: it holds its
// last-known budget and decays it geometrically per supply window toward
// an autonomous safe floor, so staleness buys safety rather than
// overdraw. The floor is what the node can justify without any parent:
//
//	server:  min(hard cap, static + lastParentTP / siblings)
//	PMU:     min(subtree cap, subtree floor + lastParentTP / siblings)
//
// where lastParentTP is the parent budget reported with the last heard
// directive (its "fair share" is an equal split among the siblings).
// The hard caps — Eq. 3 thermal limit and circuit limit — always bound
// the held budget, so a degraded subtree can never exceed them. Budgets
// below the floor are never raised: degradation only ever sheds.
//
// An alive PMU keeps issuing directives to its children every supply
// window no matter what it hears from above (using its held, possibly
// decayed budget), so a single dead ancestor degrades exactly the nodes
// that lost their coordinator — the dead PMU's direct children — while
// deeper descendants stay fresh under local, autonomous control.
//
// With BudgetLeaseTicks, BudgetLatency and BudgetLoss all zero and no
// PMU failed, the one allocation pass (allocateResilient, allocate.go)
// runs with its lease bookkeeping off: every directive is delivered
// directly, no lease is written or aged, and the division is the
// paper's fail-free one.

// budgetMsg is one downward budget directive in flight.
type budgetMsg struct {
	tp       float64 // the child's granted budget
	parentTP float64 // the parent's own budget at grant time (fair-share input)
	ok       bool    // false: the slot carries a loss, nothing is delivered
}

// budgetPipe delays budget directives by a fixed number of supply
// windows, the downward mirror of reportPipe. Losses travel through the
// pipe as not-ok slots: the child hears nothing when they surface.
type budgetPipe struct {
	buf  []budgetMsg // ring of in-flight directives; len = BudgetLatency
	head int
	live bool
}

// push enqueues a directive and returns the one surfacing after the
// pipe's delay. The first push primes the whole pipe (startup is not a
// burst of phantom losses).
func (p *budgetPipe) push(m budgetMsg) budgetMsg {
	if !p.live {
		for i := range p.buf {
			p.buf[i] = m
		}
		p.live = true
	}
	if len(p.buf) == 0 {
		return m
	}
	out := p.buf[p.head]
	p.buf[p.head] = m
	p.head = (p.head + 1) % len(p.buf)
	return out
}

// budgetPipeFor returns (creating on demand) the budget pipe of the link
// between the node with the given ID and its parent.
func (c *Controller) budgetPipeFor(id int) *budgetPipe {
	p := c.budgetPipes[id]
	if p == nil {
		p = &budgetPipe{buf: make([]budgetMsg, c.Cfg.BudgetLatency)}
		c.budgetPipes[id] = p
	}
	return p
}

// SetLinkLoss adjusts the per-link control-plane loss probabilities at
// runtime — the chaos engine's link-loss windows drive it. Values are
// clamped into [0, 1). It is the only runtime switch from asynchronous
// back to synchronous reporting. When it turns the report pipes off,
// every PMU is marked dirty, because the PMU CPs hold pipe-derived
// values the dirty bits know nothing about, and the pipes are dropped,
// as RepairPMU drops its span's: the next window re-primes them from
// current demand instead of replaying the values this one left behind.
func (c *Controller) SetLinkLoss(report, budget float64) {
	async := c.asyncEnabled()
	c.Cfg.ReportLoss = clampLoss(report)
	c.Cfg.BudgetLoss = clampLoss(budget)
	if async && !c.asyncEnabled() {
		clear(c.pipes)
		c.markAllDirty()
	}
}

func clampLoss(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v >= 1 {
		return 1 - 1e-9
	}
	return v
}

// resilienceEnabled reports whether supply windows run allocateResilient
// with its lease bookkeeping on. False keeps every lease field unwritten
// on a fail-free control plane — which is observable: the integral
// policy's anti-windup floor (LeaseFloor) reads lastParentTP.
func (c *Controller) resilienceEnabled() bool {
	return c.Cfg.BudgetLeaseTicks > 0 || c.Cfg.BudgetLatency > 0 ||
		c.Cfg.BudgetLoss > 0 || c.failedPMUCount > 0
}

// underDeadPMU reports whether any ancestor PMU of n has crashed — such
// a node cannot be coordinated with by the rest of the hierarchy.
func (c *Controller) underDeadPMU(n *topo.Node) bool {
	if c.failedPMUCount == 0 {
		return false
	}
	for a := n.Parent; a != nil; a = a.Parent {
		if c.failedPMU[a.ID] {
			return true
		}
	}
	return false
}

// reachLimit returns the highest tree level whose coordinator n can
// still reach through alive PMUs — the ceiling for migration escalation
// and orphan-restart scope. Zero means even the level-1 parent is dead:
// no migration machinery is available to the node at all.
func (c *Controller) reachLimit(n *topo.Node) int {
	limit := 0
	for a := n.Parent; a != nil && !c.failedPMU[a.ID]; a = a.Parent {
		limit = a.Level
	}
	return limit
}

// ageServerLease checks an undelivered server's lease at a supply window
// and, once expired, enters degraded mode and decays the held budget
// geometrically toward the autonomous safe floor. Budgets at or below
// the floor are held, never raised.
func (c *Controller) ageServerLease(out *shardOut, s *Server, t int) {
	lease := c.Cfg.BudgetLeaseTicks
	if lease <= 0 || t-s.leaseTick <= lease {
		return
	}
	entered := !s.Degraded()
	if entered {
		s.setDegraded(true)
		out.leaseExpiries++
	}
	floor := c.serverFloor(s)
	prev := s.TP()
	if prev > floor {
		s.setTP(floor + c.Cfg.DegradedDecay*(prev-floor))
	}
	c.hot.reduced[s.idx] = c.isReduced(s.TP(), prev, s.CP())
	if entered && c.Sink != nil {
		out.events = append(out.events, telemetry.Event{
			Tick: t, Kind: telemetry.KindDegraded,
			Node: s.Node.ID, Server: s.Node.ServerIndex,
			Cause: "enter", Watts: s.TP(), Prev: prev,
		})
	}
}

// agePMULease is ageServerLease for internal nodes.
func (c *Controller) agePMULease(out *shardOut, n *topo.Node, t int) {
	lease := c.Cfg.BudgetLeaseTicks
	if lease <= 0 || t-c.pmuLeaseTick[n.ID] <= lease {
		return
	}
	id := n.ID
	entered := !c.pmuDegraded[id]
	if entered {
		c.pmuDegraded[id] = true
		out.leaseExpiries++
	}
	floor := c.pmuFloor(n)
	prev := c.pmuTP[id]
	if prev > floor {
		c.pmuTP[id] = floor + c.Cfg.DegradedDecay*(prev-floor)
	}
	c.pmuReduced[id] = c.isReduced(c.pmuTP[id], prev, c.pmuCP[id])
	if entered && c.Sink != nil {
		out.events = append(out.events, telemetry.Event{
			Tick: t, Kind: telemetry.KindDegraded,
			Node: id, Level: n.Level,
			Cause: "enter", Watts: c.pmuTP[id], Prev: prev,
		})
	}
}

// clearServerDegraded exits degraded mode on a freshly delivered lease.
func (c *Controller) clearServerDegraded(out *shardOut, s *Server, t int) {
	if !s.Degraded() {
		return
	}
	s.setDegraded(false)
	if c.Sink != nil {
		out.events = append(out.events, telemetry.Event{
			Tick: t, Kind: telemetry.KindDegraded,
			Node: s.Node.ID, Server: s.Node.ServerIndex,
			Cause: "exit", Watts: s.TP(),
		})
	}
}

// clearPMUDegraded is clearServerDegraded for internal nodes.
func (c *Controller) clearPMUDegraded(out *shardOut, n *topo.Node, t int) {
	if !c.pmuDegraded[n.ID] {
		return
	}
	c.pmuDegraded[n.ID] = false
	if c.Sink != nil {
		out.events = append(out.events, telemetry.Event{
			Tick: t, Kind: telemetry.KindDegraded,
			Node: n.ID, Level: n.Level,
			Cause: "exit", Watts: c.pmuTP[n.ID],
		})
	}
}

// serverFloor is the server's autonomous safe floor: what it can justify
// drawing with no parent to hear from — its static power plus an equal
// split of the last-known parent budget among the siblings, never above
// the hard cap (Eq. 3 thermal limit, circuit limit, rated peak).
func (c *Controller) serverFloor(s *Server) float64 {
	floor := s.Power.Static + c.fairShare(s.Node, s.lastParentTP)
	if cap := s.HardCap(); cap < floor {
		floor = cap
	}
	return floor
}

// pmuFloor is serverFloor lifted to a subtree: summed static floors plus
// the node's fair share of the last-known parent budget, capped by the
// subtree's summed hard caps (both from the current sumSubtrees pass).
func (c *Controller) pmuFloor(n *topo.Node) float64 {
	floor := c.subFloor[n.ID] + c.fairShare(n, c.pmuLastParentTP[n.ID])
	if cap := c.subCap[n.ID]; cap < floor {
		floor = cap
	}
	return floor
}

// fairShare splits a parent budget equally among n's siblings (and n).
func (c *Controller) fairShare(n *topo.Node, parentTP float64) float64 {
	if n.Parent == nil || parentTP <= 0 {
		return 0
	}
	return parentTP / float64(len(n.Parent.Children))
}
