package core

import (
	"slices"

	"willow/internal/telemetry"
)

// QoS settlement: when a server's instantaneous demand exceeds its
// effective budget, something must give. The paper's mechanism
// (Section IV-E): "some of the applications that are hosted in the node
// are either shut down completely or run in a degraded operational mode
// to stay within the power budget". Multiple QoS classes are the paper's
// stated future work (Section VI); this implements them: applications
// carry a Priority (0 = most critical) and shedding consumes the
// lowest-priority demand first, degrading an application partially
// before shutting it down.
//
// The static floor and pending migration cost cannot be shed — an awake
// server burns them regardless — so only the dynamic (per-application)
// demand participates.

// appService records one application's service level in the current
// window.
type appService struct {
	appID    int
	priority int
	demand   float64
	served   float64
}

// settleQoS divides the effective budget over the server's demand,
// shedding lowest-priority applications first. It returns the power
// consumed and records per-priority accounting into the controller
// stats.
func (c *Controller) settleQoS(s *Server, eff float64) float64 {
	// Fast path: everything fits.
	raw := s.RawDemand()
	if raw <= eff {
		for _, a := range s.Apps.Apps {
			c.recordService(a.Priority, a.LastDemand, a.LastDemand)
			c.recordClassService(a.ID, a.LastDemand)
		}
		return raw
	}

	// The non-sheddable part: static draw plus the migration cost folded
	// into this tick's demand.
	fixed := raw
	var dynTotal float64
	services := make([]appService, 0, s.Apps.Len())
	for _, a := range s.Apps.Apps {
		dynTotal += a.LastDemand
		services = append(services, appService{appID: a.ID, priority: a.Priority, demand: a.LastDemand})
	}
	fixed -= dynTotal

	if eff <= fixed {
		// Even the fixed draw exceeds the budget: every application is
		// shut down for the window and the server browns out to eff.
		for i := range services {
			c.recordService(services[i].priority, services[i].demand, 0)
			if services[i].demand > 0 {
				c.Stats.ShutdownAppTicks++
				c.publishQoS(s, services[i].appID, "shutdown", 0, services[i].demand)
			}
		}
		return eff
	}

	budget := eff - fixed // dynamic watts we can serve
	// Serve highest priority first (lowest number), largest demand first
	// within a class so fewer applications end up degraded.
	slices.SortStableFunc(services, func(a, b appService) int {
		switch {
		case a.priority != b.priority:
			return a.priority - b.priority
		case a.demand != b.demand:
			if a.demand > b.demand {
				return -1
			}
			return 1
		default:
			return a.appID - b.appID
		}
	})
	consumed := fixed
	for i := range services {
		sv := &services[i]
		switch {
		case sv.demand <= 0:
			// Nothing to serve.
		case budget >= sv.demand:
			sv.served = sv.demand
			budget -= sv.demand
		case budget > 0:
			sv.served = budget
			budget = 0
			c.Stats.DegradedAppTicks++
			c.publishQoS(s, sv.appID, "degraded", sv.served, sv.demand)
		default:
			c.Stats.ShutdownAppTicks++
			c.publishQoS(s, sv.appID, "shutdown", 0, sv.demand)
		}
		consumed += sv.served
		c.recordService(sv.priority, sv.demand, sv.served)
		c.recordClassService(sv.appID, sv.served)
	}
	return consumed
}

// publishQoS records one application served degraded or shut down
// within the current settlement window.
func (c *Controller) publishQoS(s *Server, appID int, cause string, served, demand float64) {
	if c.Sink == nil {
		return
	}
	c.publish(telemetry.Event{
		Tick: c.tick, Kind: telemetry.KindQoSViolation,
		Server: s.Node.ServerIndex, App: appID, Cause: cause,
		Watts: served, Demand: demand,
	})
}

// recordService accumulates per-priority demand/served watt-ticks into
// the controller's per-priority slices — called once per application
// per tick, allocation- and hash-free.
func (c *Controller) recordService(priority int, demand, served float64) {
	c.prioDemand[priority] += demand
	c.prioServed[priority] += served
	c.prioSeen[priority] = true
}

// flushServiceStats publishes the per-priority running totals into
// Stats.DemandByPriority/ServedByPriority at the end of a Step. The maps
// stay nil until a first application is recorded and carry exactly the
// priorities recorded so far; each value is the slice's running sum,
// accumulated in the same order as summing into the map directly, so
// the bits are the same.
func (c *Controller) flushServiceStats() {
	st := &c.Stats
	for p, seen := range c.prioSeen {
		if !seen {
			continue
		}
		if st.DemandByPriority == nil {
			st.DemandByPriority = map[int]float64{}
			st.ServedByPriority = map[int]float64{}
		}
		st.DemandByPriority[p] = c.prioDemand[p]
		st.ServedByPriority[p] = c.prioServed[p]
	}
}

// ServiceLevel returns the fraction of priority-p demand served so far
// (1 when the class has no recorded demand).
func (st *Stats) ServiceLevel(priority int) float64 {
	d := st.DemandByPriority[priority]
	if d <= 0 {
		return 1
	}
	return st.ServedByPriority[priority] / d
}
