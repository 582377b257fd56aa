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

// serviceRec is one application's service this window: its demand,
// the watts it was served, its priority and its class index (−1 books
// no class service). The consume phase's settle records them for the
// merge to fold (foldService).
type serviceRec struct {
	demand, served float64
	priority       int32
	class          int32
}

// foldService books one application's service record into the
// per-priority and per-class sums — called once per application per
// tick, in server order, allocation- and hash-free.
func (c *Controller) foldService(r serviceRec) {
	c.prioDemand[r.priority] += r.demand
	c.prioServed[r.priority] += r.served
	c.prioSeen[r.priority] = true
	if r.class >= 0 {
		c.energy.classServed[r.class] += r.served
	}
}

// settleQoS divides the effective budget eff over a server whose demand
// exceeds it, shedding lowest-priority applications first. It returns
// the power consumed and recs with one service record appended per
// application; its events and counters go into the shard's output.
func (c *Controller) settleQoS(out *shardOut, recs []serviceRec, s *Server, eff float64) (float64, []serviceRec) {
	// The non-sheddable part: static draw plus the migration cost folded
	// into this tick's demand.
	fixed := s.RawDemand()
	var dynTotal float64
	services := out.services[:0]
	for _, a := range s.Apps.Apps {
		dynTotal += a.LastDemand
		services = append(services, appService{appID: a.ID, priority: a.Priority, demand: a.LastDemand})
	}
	out.services = services
	fixed -= dynTotal

	if eff <= fixed {
		// Even the fixed draw exceeds the budget: every application is
		// shut down for the window and the server browns out to eff. A
		// brown-out books no class service.
		for _, sv := range services {
			recs = append(recs, serviceRec{demand: sv.demand, priority: int32(sv.priority), class: -1})
			if sv.demand > 0 {
				out.shutdownApps++
				c.publishQoS(out, s, sv.appID, "shutdown", 0, sv.demand)
			}
		}
		return eff, recs
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
			out.degradedApps++
			c.publishQoS(out, s, sv.appID, "degraded", sv.served, sv.demand)
		default:
			out.shutdownApps++
			c.publishQoS(out, s, sv.appID, "shutdown", 0, sv.demand)
		}
		consumed += sv.served
		recs = append(recs, serviceRec{
			demand: sv.demand, served: sv.served,
			priority: int32(sv.priority), class: c.energy.classIndex(sv.appID),
		})
	}
	return consumed, recs
}

// publishQoS buffers the event of one application served degraded or
// shut down within the current settlement window.
func (c *Controller) publishQoS(out *shardOut, s *Server, appID int, cause string, served, demand float64) {
	if c.Sink == nil {
		return
	}
	out.events = append(out.events, telemetry.Event{
		Tick: c.tick, Kind: telemetry.KindQoSViolation,
		Server: s.Node.ServerIndex, App: appID, Cause: cause,
		Watts: served, Demand: demand,
	})
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
