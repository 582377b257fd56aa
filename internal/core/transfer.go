package core

import "sort"

// Non-instantaneous VM migration. The paper's testbed performs real
// VMware migrations, whose transfer time is far from zero; the
// simulation captures that cost only as a temporary power charge. With
// Config.MigrationLatency > 0 a migration becomes a *transfer*: the
// decision is made now (and recorded now — Fig. 16 counts decisions),
// but the application keeps running — and demanding power — at the
// source until the transfer completes. Three consistency rules keep the
// control loop sound while transfers are in flight:
//
//   - an in-flight application cannot be re-planned (no mid-air rerouting);
//   - the destination's surplus is *reserved* for the inbound demand, so
//     interim decisions cannot overbook it;
//   - neither endpoint of an in-flight transfer may be put to sleep.
//
// A transfer whose destination nonetheless became unavailable is
// cancelled: the application simply stays where it is (counted in
// Stats.AbortedTransfers).

// transfer is one in-flight migration.
type transfer struct {
	app      int // application ID
	src, dst *Server
	arriveAt int
	watts    float64 // demand reserved at the destination
}

// startTransfer begins moving app from src to dst, arriving after the
// configured latency.
func (c *Controller) startTransfer(appID int, src, dst *Server, t int) {
	watts := src.Apps.ByID(appID).Mean
	c.transfers = append(c.transfers, transfer{
		app: appID, src: src, dst: dst,
		arriveAt: t + c.Cfg.MigrationLatency,
		watts:    watts,
	})
	c.inFlight[appID] = true
	c.reserved[dst.Node.ServerIndex] += watts
}

// completeTransfers lands every transfer due at or before tick t, then
// settles deferred sleeps whose outbound transfers have all departed.
func (c *Controller) completeTransfers(t int) {
	if len(c.transfers) == 0 && len(c.pendingSleep) == 0 {
		return
	}
	remaining := c.transfers[:0]
	for _, tr := range c.transfers {
		if tr.arriveAt > t {
			remaining = append(remaining, tr)
			continue
		}
		app := tr.src.Apps.ByID(tr.app)
		delete(c.inFlight, tr.app)
		if app == nil {
			// The source lost the app some other way (defensive).
			c.releaseReservation(tr)
			continue
		}
		c.releaseReservation(tr)
		if tr.dst.Asleep() {
			// Destination vanished mid-transfer: cancel, the app stays.
			c.Stats.AbortedTransfers++
			continue
		}
		tr.src.Apps.Remove(app.ID)
		tr.dst.Apps.Add(app)
		cp := tr.src.CP() - app.Mean
		if cp < 0 {
			cp = 0
		}
		tr.src.setCP(cp)
		tr.dst.setCP(tr.dst.CP() + app.Mean)
		tr.src.smoother.Bias(-app.Mean)
		tr.dst.smoother.Bias(app.Mean)
	}
	c.transfers = remaining

	// Deferred sleeps: a drained server deactivates once everything has
	// actually left. An aborted transfer returned an app, so the server
	// stays up and resumes normal life.
	// Settle in ascending server order: pendingSleep is a map, and map
	// iteration order would otherwise leak into the event stream when two
	// drained servers settle on the same tick — breaking the package's
	// byte-identical determinism contract.
	due := make([]int, 0, len(c.pendingSleep))
	for idx := range c.pendingSleep {
		due = append(due, idx)
	}
	sort.Ints(due)
	slept := false
	for _, idx := range due {
		s := c.Servers[idx]
		if c.outboundFor(s) > 0 {
			continue // still draining
		}
		delete(c.pendingSleep, idx)
		delete(c.draining, idx)
		if s.Apps.Len() > 0 {
			continue // an abort brought something back: stay awake
		}
		s.setAsleep(true)
		s.setRawDemand(0)
		s.setCP(0)
		s.smoother.Reset()
		c.publishSleep(s)
		slept = true
	}
	if slept {
		c.allocateResilient(t, false) // the freed static floors re-derive budgets
	}
}

// sleepOrDefer deactivates a fully drained server, or — when its apps
// are still in flight because migrations take time — defers the
// deactivation until they land. It reports whether the server slept
// immediately.
func (c *Controller) sleepOrDefer(victim *Server) bool {
	if c.outboundFor(victim) > 0 {
		idx := victim.Node.ServerIndex
		c.pendingSleep[idx] = true
		c.draining[idx] = true // keep refusing inbound work
		return false
	}
	victim.setAsleep(true)
	victim.setRawDemand(0)
	victim.setCP(0)
	victim.smoother.Reset()
	c.publishSleep(victim)
	return true
}

// releaseReservation returns the destination's reserved headroom.
func (c *Controller) releaseReservation(tr transfer) {
	idx := tr.dst.Node.ServerIndex
	c.reserved[idx] -= tr.watts
	if c.reserved[idx] < tolerance {
		delete(c.reserved, idx)
	}
}

// reservedFor returns the watts already promised to inbound transfers of
// the given server.
func (c *Controller) reservedFor(s *Server) float64 {
	return c.reserved[s.Node.ServerIndex]
}

// outboundFor returns the watts already departing the given server on
// in-flight transfers — demand a deficit calculation must not count
// twice, or the controller would keep peeling until the server was bare.
func (c *Controller) outboundFor(s *Server) float64 {
	var sum float64
	for _, tr := range c.transfers {
		if tr.src == s {
			sum += tr.watts
		}
	}
	return sum
}

// transferTouches reports whether the server is an endpoint of any
// in-flight transfer — such servers must stay awake.
func (c *Controller) transferTouches(s *Server) bool {
	for _, tr := range c.transfers {
		if tr.src == s || tr.dst == s {
			return true
		}
	}
	return false
}
