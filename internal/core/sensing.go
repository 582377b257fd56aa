package core

// The sensing layer splits "true" physical state from "observed" state.
// Every Eq. 3 power-limit computation reads Server.TObs, never the
// physical Thermal.T; TObs is produced here, once per tick right after
// the temperature integrates forward, from the server's (possibly
// faulty) sensor reading.
//
// With Config's sensing knobs all zero the layer is the identity — a
// fault-free server's TObs equals Thermal.T bit-for-bit, so the control
// path matches a build without the layer byte-for-byte. With the
// estimator armed, each reading is filtered through a median-of-window
// plus a residual gate against the RC-model one-step prediction
// (thermal.Model.Step): readings the gate rejects do not enter the
// median, SensorTrips consecutive rejections flag the sensor unhealthy,
// and an unhealthy (or dropped-out) sensor falls back safe-side — the
// control temperature becomes the model prediction plus the SensorGuard
// band, decaying toward the thermal limit if the outage outlives the
// budget-lease grace period, which walks the Eq. 3 cap down to the
// sustainable steady-state floor exactly like PR 3's degraded mode.
//
// Safety argument: the estimator's recursive state (the anchor) is
// clamped from below by the model prediction from the previous anchor.
// Because thermal.Model.Step is monotone in its starting temperature
// and the anchor starts at the true ambient, the anchor — and with it
// TObs — never falls below the true temperature under the exact model,
// no matter what the sensor reports. Caps derived from TObs are
// therefore always at least as tight as truth-derived ones, which is
// what keeps the *physical* temperature under its limit while the
// instrument lies (see TestSensorChaosTrueTemperatureCap).

import (
	"math"

	"willow/internal/sensor"
	"willow/internal/telemetry"
)

// estimator is the per-server robust temperature estimator state.
type estimator struct {
	// window is a ring buffer of the last accepted readings.
	window []float64
	n, at  int

	// anchor is the recursive safe-side estimate the next one-step
	// prediction starts from; it never falls below the true temperature
	// (see the package comment's safety argument).
	anchor float64

	unhealthy  bool
	badStreak  int
	goodStreak int

	// outage counts consecutive ticks spent on the model fallback;
	// fallback is the decay-toward-limit temperature of a persistent
	// outage (valid when haveFallback).
	outage       int
	fallback     float64
	haveFallback bool
}

func newEstimator(window int, t0 float64) *estimator {
	return &estimator{window: make([]float64, window), anchor: t0}
}

func (e *estimator) push(v float64) {
	e.window[e.at] = v
	e.at = (e.at + 1) % len(e.window)
	if e.n < len(e.window) {
		e.n++
	}
}

// median returns the median of the accepted-reading window (mean of the
// middle two for even counts). Call only with n > 0.
func (e *estimator) median() float64 {
	var buf [16]float64
	vals := buf[:0]
	vals = append(vals, e.window[:e.n]...)
	// insertion sort: the window is tiny and allocation-free matters
	// (this runs per server per tick).
	for i := 1; i < len(vals); i++ {
		for j := i; j > 0 && vals[j] < vals[j-1]; j-- {
			vals[j], vals[j-1] = vals[j-1], vals[j]
		}
	}
	if len(vals)%2 == 1 {
		return vals[len(vals)/2]
	}
	return (vals[len(vals)/2-1] + vals[len(vals)/2]) / 2
}

// AttachSensor routes server idx's temperature readings through the
// given instrument. Sensors must be attached before the run starts;
// the harness gives each a private random stream (cluster.Run).
func (c *Controller) AttachSensor(idx int, sn *sensor.Sensor) {
	c.Servers[idx].sensor = sn
}

// SetSensorFault arms a fault on server idx's sensor (attaching a
// default instrument if none is present) and records it.
func (c *Controller) SetSensorFault(idx int, f sensor.Fault) {
	s := c.Servers[idx]
	if s.sensor == nil {
		s.sensor = sensor.New(nil)
	}
	s.sensor.Set(f, c.tick)
	c.Stats.SensorFaults++
	if c.Sink != nil {
		c.publish(telemetry.Event{
			Tick: c.tick, Kind: telemetry.KindSensor,
			Server: s.Node.ServerIndex,
			Cause:  "inject:" + f.Mode.String(), Watts: f.Magnitude,
		})
	}
}

// ClearSensorFault heals server idx's sensor.
func (c *Controller) ClearSensorFault(idx int) {
	s := c.Servers[idx]
	if s.sensor == nil {
		return
	}
	s.sensor.Clear()
	if c.Sink != nil {
		c.publish(telemetry.Event{
			Tick: c.tick, Kind: telemetry.KindSensor,
			Server: s.Node.ServerIndex, Cause: "clear",
		})
	}
}

// sense refreshes s.TObs from the sensor after the temperature advanced
// under the given consumed power. It runs at the end of every tick for
// every server (asleep ones included — their instruments keep
// reporting), so within-tick allocation and post-tick observers both
// see the same observed state. It runs in the consume phase's sharded
// settle (settleServer), so its events and counters go into the shard's
// output.
func (c *Controller) sense(out *shardOut, s *Server, consumed float64) {
	raw := s.Thermal.T
	if s.sensor != nil {
		raw = s.sensor.Read(s.Thermal.T, c.tick)
	}
	if s.est == nil {
		// Naive mode: trust the instrument. A non-finite reading (dropout)
		// holds the previous observation — a frozen gauge, not a NaN that
		// would poison Eq. 3 and the telemetry stream.
		if isFinite(raw) {
			s.setTObs(raw)
		}
		return
	}
	s.setTObs(c.estimate(out, s, raw, consumed))
}

// estimate runs one tick of the robust estimator: residual-gate the
// reading, update sensor health, and produce the control temperature.
func (c *Controller) estimate(out *shardOut, s *Server, raw, consumed float64) float64 {
	e := s.est
	m := s.Thermal.Model
	pred := m.Step(e.anchor, consumed, c.Cfg.ThermalDt)

	ok := isFinite(raw) && (c.Cfg.SensorGate <= 0 || math.Abs(raw-pred) <= c.Cfg.SensorGate)
	if ok {
		e.push(raw)
		e.goodStreak++
		e.badStreak = 0
		if e.unhealthy && e.goodStreak >= c.Cfg.SensorTrips {
			e.unhealthy = false
			if c.Sink != nil {
				out.events = append(out.events, telemetry.Event{
					Tick: c.tick, Kind: telemetry.KindSensor,
					Server: s.Node.ServerIndex, Cause: "healthy",
					Watts: raw, Prev: pred,
				})
			}
		}
	} else {
		e.goodStreak = 0
		e.badStreak++
		out.rejected++
		if c.Sink != nil {
			ev := telemetry.Event{
				Tick: c.tick, Kind: telemetry.KindSensor,
				Server: s.Node.ServerIndex, Cause: "reject", Prev: pred,
			}
			if isFinite(raw) {
				ev.Watts = raw
			} else {
				ev.Cause = "dropout" // NaN must never reach the JSONL wire
			}
			out.events = append(out.events, ev)
		}
		if !e.unhealthy && e.badStreak >= c.Cfg.SensorTrips {
			e.unhealthy = true
			out.unhealthy++
			if c.Sink != nil {
				out.events = append(out.events, telemetry.Event{
					Tick: c.tick, Kind: telemetry.KindSensor,
					Server: s.Node.ServerIndex, Cause: "unhealthy", Prev: pred,
				})
			}
		}
	}

	if e.unhealthy || e.n == 0 {
		// Open loop: the instrument cannot be trusted (or has produced
		// nothing usable yet). Control runs on the model prediction plus
		// the guard band; the anchor follows the bare prediction so the
		// guard does not compound through the recursion.
		e.anchor = pred
		obs := pred + c.Cfg.SensorGuard
		e.outage++
		out.guardTicks++
		if e.outage > c.sensingGrace() {
			// The outage outlived the lease grace period: decay the control
			// temperature toward the thermal limit, which walks the Eq. 3
			// cap down to the sustainable steady-state floor
			// (thermal.Model.SteadyStatePowerLimit) — the sensing analogue
			// of degraded mode's budget decay.
			if !e.haveFallback {
				e.fallback = obs
				e.haveFallback = true
			}
			decay := math.Pow(c.Cfg.DegradedDecay, 1/float64(c.Cfg.Eta1))
			if e.fallback < m.Limit {
				e.fallback = m.Limit - (m.Limit-e.fallback)*decay
			}
			if e.fallback > obs {
				obs = e.fallback
			}
		}
		if c.Sink != nil {
			out.events = append(out.events, telemetry.Event{
				Tick: c.tick, Kind: telemetry.KindSensor,
				Server: s.Node.ServerIndex, Cause: "guard",
				Watts: obs, Prev: pred,
			})
		}
		return obs
	}

	e.outage = 0
	e.haveFallback = false
	// An accepted reading is the estimate; a rejected one (while the
	// sensor is still within its trip allowance) rides the median of the
	// recent accepted history instead, smoothing transient glitches.
	// Using the median for accepted readings too would be tempting but
	// wrong twice over: on a cooling server the window's stale higher
	// values would hold TObs above truth — breaking the bit-identity
	// contract for clean sensors — and the extra conservatism buys
	// nothing the pred clamp below doesn't already guarantee.
	obs := raw
	if !ok {
		obs = e.median()
	}
	if pred > obs {
		// The model anchor: never let accepted-but-low readings pull the
		// estimate below the one-step prediction — this is what bounds
		// TObs from below by the true temperature.
		obs = pred
	}
	e.anchor = obs
	return obs
}

// sensingGrace is how many fallback ticks an unhealthy sensor gets
// before its control temperature starts decaying toward the limit: the
// budget-lease length, or two supply windows when leases are off.
func (c *Controller) sensingGrace() int {
	if c.Cfg.BudgetLeaseTicks > 0 {
		return c.Cfg.BudgetLeaseTicks
	}
	return 2 * c.Cfg.Eta1
}

// isFinite reports whether v is a usable reading (not NaN, not ±Inf).
func isFinite(v float64) bool {
	return !math.IsNaN(v) && !math.IsInf(v, 0)
}
