package core

import (
	"willow/internal/telemetry"
	"willow/internal/topo"
	"willow/internal/workload"
)

// Failure injection. The paper assumes servers do not fail (its
// convergence analysis only worries about control-message links); a
// production deployment cannot. FailServer models a crash — not a
// graceful drain: the server goes dark instantly and its applications
// are orphaned. Orphans re-place through the regular migration machinery
// at the start of every demand window, preferring targets near the
// failed server (restart locality mirrors migration locality: the VM's
// disk image lives close by). Capacity pressure from restarts drives the
// existing wake path. RepairServer brings the machine back as an empty,
// awake server that the next allocation folds in.

// orphan is an application awaiting restart after its host failed.
type orphan struct {
	app  *workload.App
	home *Server // the failed host, used for restart locality
}

// FailServer crashes the server with the given index: it deactivates
// immediately, its applications are orphaned for restart, and any
// transfer touching it is cancelled (inbound transfers return to their
// sources; outbound ones become orphans since the source is gone).
// Failing an already-failed server is a no-op. A sleeping server can
// die too — it hosts nothing, but it must be marked failed so tryWake
// never selects a dead machine.
func (c *Controller) FailServer(idx int) {
	if idx < 0 || idx >= len(c.Servers) {
		panic("core: FailServer index out of range")
	}
	s := c.Servers[idx]
	if s.failed {
		return
	}
	if s.Asleep() {
		// Dies in its sleep: drained before deactivating, so there are
		// no applications to orphan and no transfers to cancel.
		s.failed = true
		s.wakeAt = -1
		c.Stats.Failures++
		if c.Sink != nil {
			c.publish(telemetry.Event{
				Tick: c.tick, Kind: telemetry.KindFailure,
				Server: idx, Cause: "fail",
			})
		}
		return
	}
	// Cancel transfers touching the failed machine.
	remaining := c.transfers[:0]
	for _, tr := range c.transfers {
		switch {
		case tr.src == s:
			// The departing app dies with its host; it becomes an orphan
			// below (it is still in s.Apps).
			delete(c.inFlight, tr.app)
			c.releaseReservation(tr)
			c.Stats.AbortedTransfers++
		case tr.dst == s:
			// Inbound transfer: the app never left its source.
			delete(c.inFlight, tr.app)
			c.releaseReservation(tr)
			c.Stats.AbortedTransfers++
		default:
			remaining = append(remaining, tr)
		}
	}
	c.transfers = remaining
	delete(c.pendingSleep, idx)
	delete(c.draining, idx)

	orphaned := 0
	var orphanWatts float64
	for _, a := range s.Apps.Apps {
		c.orphans = append(c.orphans, orphan{app: a, home: s})
		orphaned++
		orphanWatts += a.Mean
	}
	s.Apps.Apps = nil
	s.setAsleep(true)
	s.failed = true
	s.wakeAt = -1
	s.setRawDemand(0)
	s.setCP(0)
	s.setConsumed(0)
	s.smoother.Reset()
	c.Stats.Failures++
	if c.Sink != nil {
		c.publish(telemetry.Event{
			Tick: c.tick, Kind: telemetry.KindFailure,
			Server: idx, Cause: "fail",
			Count: orphaned, Watts: orphanWatts,
		})
	}
}

// RepairServer returns a failed server to service as an empty, awake
// machine. It is a no-op for servers that are not failed.
func (c *Controller) RepairServer(idx int) {
	if idx < 0 || idx >= len(c.Servers) {
		panic("core: RepairServer index out of range")
	}
	s := c.Servers[idx]
	if !s.failed {
		return
	}
	s.failed = false
	s.setAsleep(false)
	s.smoother.Reset()
	c.Stats.Repairs++
	if c.Sink != nil {
		c.publish(telemetry.Event{
			Tick: c.tick, Kind: telemetry.KindFailure,
			Server: idx, Cause: "repair",
		})
	}
}

// Orphans reports how many applications currently await restart.
func (c *Controller) Orphans() int { return len(c.orphans) }

// restartOrphans places orphaned applications into current surpluses,
// preferring targets near the failed home (the same locality-ordered
// escalation as migrations). Placed orphans are recorded as restart
// migrations; the rest wait — accumulating OrphanWattTicks — and exert
// wake pressure through tryWake.
func (c *Controller) restartOrphans(t int) {
	if len(c.orphans) == 0 {
		return
	}
	var stranded float64
	for _, o := range c.orphans {
		c.Stats.OrphanWattTicks += o.app.Mean
		stranded += o.app.Mean
	}
	if c.Sink != nil {
		// One degradation record per waiting tick, so aggregators can
		// integrate stranded demand (OrphanWattTicks) from the stream.
		c.publish(telemetry.Event{
			Tick: t, Kind: telemetry.KindDegraded,
			Cause: "orphans", Count: len(c.orphans), Watts: stranded,
		})
	}
	ws := c.workingSurpluses()
	var waiting []orphan
	for _, o := range c.orphans {
		scope := c.Tree.Root
		if c.failedPMUCount > 0 {
			// Restart coordination climbs the same hierarchy as
			// migrations: a dead PMU bounds how far the orphan's home
			// span can reach for a target.
			limit := c.reachLimit(o.home.Node)
			if limit == 0 {
				waiting = append(waiting, o)
				continue
			}
			scope = ancestorAt(o.home.Node, limit)
		}
		to := c.pickTarget(item{app: o.app, src: o.home}, scope, nil, ws, false, true)
		if to == nil {
			waiting = append(waiting, o)
			continue
		}
		ws.watts[to.Node.ServerIndex] -= o.app.Mean
		to.Apps.Add(o.app)
		to.setCP(to.CP() + o.app.Mean)
		to.smoother.Bias(o.app.Mean)
		to.migCost += c.Cfg.MigCostWatts // restart work (boot, image fetch)
		m := Migration{
			Tick:  t,
			AppID: o.app.ID,
			From:  o.home.Node.ServerIndex,
			To:    to.Node.ServerIndex,
			Watts: o.app.Mean,
			Bytes: o.app.MigrationBytes(),
			Cause: CauseRestart,
			Local: o.home.Node.Parent == to.Node.Parent,
			Hops:  c.Tree.HopCount(o.home.Node, to.Node),
		}
		c.Stats.Migrations = append(c.Stats.Migrations, m)
		c.Stats.Restarts++
		c.countDown(&c.down, to.Node)
		c.publishMigration(m)
	}
	c.orphans = waiting
	if len(c.orphans) > 0 {
		c.tryWake(t)
	}
}

// FailPMU crashes the internal (PMU) node with the given tree node ID:
// it stops aggregating reports and issuing budgets, every link touching
// it goes silent, and its subtree rides its budget leases into degraded
// autonomous mode (degraded.go). Servers below keep running — a control
// -plane failure does not power off machines — but migrations never
// cross the dead span. Failing an already-failed PMU is a no-op.
func (c *Controller) FailPMU(nodeID int) {
	n := c.pmuNode(nodeID, "FailPMU")
	if c.failedPMU[nodeID] {
		return
	}
	c.failedPMU[nodeID] = true
	c.failedPMUCount++
	c.recountLiveUpLinks()
	c.Stats.PMUFailures++
	if c.Sink != nil {
		c.publish(telemetry.Event{
			Tick: c.tick, Kind: telemetry.KindFailure,
			Node: nodeID, Level: n.Level, Cause: "pmu-fail",
			Count: c.spanServers(n),
		})
	}
}

// RepairPMU returns a failed PMU to service and resyncs its span: the
// report and budget pipes of every link below it are dropped so they
// re-prime on the next observation (no stale in-flight values survive
// the outage), and every lease in the span is refreshed so degraded
// nodes hold steady — without further decay — until the next supply
// window delivers fresh budgets and clears their degradation. It is a
// no-op for PMUs that are not failed.
func (c *Controller) RepairPMU(nodeID int) {
	n := c.pmuNode(nodeID, "RepairPMU")
	if !c.failedPMU[nodeID] {
		return
	}
	c.failedPMU[nodeID] = false
	c.failedPMUCount--
	c.recountLiveUpLinks()
	// The repaired PMU's aggregate froze at failure time; force it to
	// re-sum at the next aggregation (ancestors follow via
	// normal dirty propagation if the sum actually changed).
	c.hot.dirty[nodeID] = true
	c.Stats.PMURepairs++
	c.resyncSpan(n)
	if c.Sink != nil {
		c.publish(telemetry.Event{
			Tick: c.tick, Kind: telemetry.KindFailure,
			Node: nodeID, Level: n.Level, Cause: "pmu-repair",
			Count: c.spanServers(n),
		})
	}
}

// pmuNode resolves and validates an internal node ID.
func (c *Controller) pmuNode(nodeID int, op string) *topo.Node {
	if nodeID < 0 || nodeID >= len(c.Tree.Nodes) {
		panic("core: " + op + " node ID out of range")
	}
	n := c.Tree.Nodes[nodeID]
	if n.IsLeaf() {
		panic("core: " + op + " on a server node (use FailServer)")
	}
	return n
}

// spanServers counts the leaf servers beneath n.
func (c *Controller) spanServers(n *topo.Node) int {
	if n.IsLeaf() {
		return 1
	}
	total := 0
	for _, ch := range n.Children {
		total += c.spanServers(ch)
	}
	return total
}

// resyncSpan drops the pipes and refreshes the leases of every node in
// n's subtree, n included.
func (c *Controller) resyncSpan(n *topo.Node) {
	c.pipes[n.ID] = nil
	c.budgetPipes[n.ID] = nil
	if n.IsLeaf() {
		c.Servers[n.ServerIndex].leaseTick = c.tick
		return
	}
	c.pmuLeaseTick[n.ID] = c.tick
	for _, ch := range n.Children {
		c.resyncSpan(ch)
	}
}
