// Package power contains the electrical models of the Willow
// reproduction: server and switch power-consumption curves, power-supply
// profiles (including the variation traces of the paper's Figs. 15 and
// 19), and a battery-backed UPS that integrates out short supply dips
// (the reason the paper's supply-side time constant Δ_S exceeds the
// demand-side Δ_D, Section IV-C).
package power

import (
	"fmt"
	"math"
)

// ServerModel maps server utilization to power draw. Under the paper's
// assumptions (Section IV-C) one platform resource bottlenecks first and
// power is a monotonic, approximately linear function of its utilization:
//
//	P(u) = Static + (Peak − Static)·u,  u ∈ [0, 1]
//
// Static is the idle draw (the paper's testbed found it almost constant),
// Peak the draw at 100 % utilization.
type ServerModel struct {
	Static float64 // watts at idle
	Peak   float64 // watts at 100 % utilization
}

// Validate reports whether the curve is physically sensible.
func (m ServerModel) Validate() error {
	if m.Static < 0 {
		return fmt.Errorf("power: negative static power %v", m.Static)
	}
	if m.Peak < m.Static {
		return fmt.Errorf("power: peak %v below static %v", m.Peak, m.Static)
	}
	return nil
}

// Power returns the draw at utilization u. u is clamped to [0, 1].
func (m ServerModel) Power(u float64) float64 {
	if u < 0 {
		u = 0
	} else if u > 1 {
		u = 1
	}
	return m.Static + (m.Peak-m.Static)*u
}

// Utilization inverts Power: the utilization that draws p watts, clamped
// to [0, 1]. For a degenerate curve (Peak == Static) it returns 0.
func (m ServerModel) Utilization(p float64) float64 {
	if m.Peak <= m.Static {
		return 0
	}
	u := (p - m.Static) / (m.Peak - m.Static)
	if u < 0 {
		return 0
	} else if u > 1 {
		return 1
	}
	return u
}

// DynamicRange returns Peak − Static, the power span utilization controls.
func (m ServerModel) DynamicRange() float64 { return m.Peak - m.Static }

// TestbedServer reconstructs the utilization→power curve of the paper's
// Table I. The exact table entries did not survive text extraction; the
// paper states the relationship is continuously increasing and roughly
// linear with near-constant static power and ≈232 W at 100 % CPU. The
// linear fit P(u) = 159.5 + 72.5·u reproduces the §V-C5 arithmetic
// exactly: 580 W total at 80/40/20 % and the 27.5 % consolidation saving.
func TestbedServer() ServerModel { return ServerModel{Static: 159.5, Peak: 232} }

// UtilPower is one row of a utilization→power table.
type UtilPower struct {
	Util  float64 // fraction in [0, 1]
	Watts float64
}

// SwitchModel maps switch traffic to power. The paper's model
// (Section V-B5) has a small fixed static part plus a dynamic part
// directly proportional to traffic handled.
type SwitchModel struct {
	Static     float64 // watts drawn regardless of traffic
	PerTraffic float64 // watts per unit of traffic
	MaxTraffic float64 // traffic capacity (normalization base for Fig. 10)
}

// Validate reports whether the switch curve is sensible.
func (m SwitchModel) Validate() error {
	if m.Static < 0 || m.PerTraffic < 0 {
		return fmt.Errorf("power: negative switch coefficients %+v", m)
	}
	if m.MaxTraffic <= 0 {
		return fmt.Errorf("power: switch MaxTraffic must be positive, got %v", m.MaxTraffic)
	}
	return nil
}

// Power returns the switch draw while handling the given traffic
// (clamped to [0, MaxTraffic]).
func (m SwitchModel) Power(traffic float64) float64 {
	if traffic < 0 {
		traffic = 0
	} else if traffic > m.MaxTraffic {
		traffic = m.MaxTraffic
	}
	return m.Static + m.PerTraffic*traffic
}

// Supply yields the power budget available to a subtree at each control
// tick. Implementations must be deterministic functions of the tick.
type Supply interface {
	// At returns the available power at tick t (t >= 0), in watts.
	At(t int) float64
}

// Constant is a fixed supply.
type Constant float64

// At implements Supply.
func (c Constant) At(int) float64 { return float64(c) }

// Trace replays a recorded supply profile. Ticks beyond the trace wrap
// around, so a Trace is also a periodic supply.
type Trace []float64

// At implements Supply.
func (tr Trace) At(t int) float64 {
	if len(tr) == 0 {
		return 0
	}
	if t < 0 {
		t = 0
	}
	return tr[t%len(tr)]
}

// Mean returns the average of the trace (0 for an empty trace).
func (tr Trace) Mean() float64 {
	if len(tr) == 0 {
		return 0
	}
	var s float64
	for _, v := range tr {
		s += v
	}
	return s / float64(len(tr))
}

// Sine is a sinusoidal supply, the canonical stand-in for diurnal
// renewable generation: Base + Amplitude·sin(2π·t/Period).
type Sine struct {
	Base      float64
	Amplitude float64
	Period    int // ticks per full cycle; must be positive
}

// At implements Supply. Negative results are clamped to zero (a solar
// array cannot draw power from the data center).
func (s Sine) At(t int) float64 {
	if s.Period <= 0 {
		return s.Base
	}
	v := s.Base + s.Amplitude*math.Sin(2*math.Pi*float64(t)/float64(s.Period))
	if v < 0 {
		return 0
	}
	return v
}

// Scaled wraps a Supply and multiplies it by a constant factor, e.g. to
// derate a feed or convert per-server to per-rack budgets.
type Scaled struct {
	S      Supply
	Factor float64
}

// At implements Supply.
func (s Scaled) At(t int) float64 { return s.Factor * s.S.At(t) }

// Foresight shifts a supply's timeline earlier: At(t) returns the value
// Epochs epochs in the future. It models an oracle (or a good forecast —
// day-ahead solar predictions are routine) that lets the controller act
// before a change arrives rather than react after it.
type Foresight struct {
	S      Supply
	Epochs int
}

// At implements Supply.
func (f Foresight) At(t int) float64 { return f.S.At(t + f.Epochs) }

// DeficitTrace returns the supply-variation profile of Fig. 15: the
// energy-deficient scenario driven against three testbed servers at an
// average utilization of 60 %. The paper injected the variation
// artificially; this synthesis preserves its defining features: deep
// plunges at time units 7, 12 and 25, with the first persisting through
// time unit 10, around a mean just sufficient for 60 % utilization
// (3 servers × ~203 W ≈ 610 W).
func DeficitTrace() Trace {
	return Trace{
		630, 625, 620, 628, 622, 618, 626, // 0-6: comfortable
		470, 475, 472, 478, // 7-10: deep plunge, persists
		600, 505, 512, 598, 605, 612, 608, 615, 610, // 11-19: second dip at 12-13
		618, 612, 620, 616, 609, // 20-24
		460, 468, 474, // 25-27: third plunge
		605, 612, // 28-29: recovery
	}
}

// PlentyTrace returns the supply profile of Fig. 19: the energy-plenty
// scenario whose average sits near the power needed to run all three
// testbed servers at 100 % utilization (≈750 W), leaving consolidation —
// not deficit — as the only migration driver.
func PlentyTrace() Trace {
	return Trace{
		755, 762, 748, 770, 745, 758, 766, 752, 760, 749,
		772, 757, 744, 763, 751, 768, 756, 747, 765, 753,
		759, 771, 746, 754, 769, 750, 761, 743, 767, 758,
	}
}

// UPS is a battery-backed uninterruptible power supply that smooths a raw
// feed: surplus charges the battery, deficits discharge it. This is the
// mechanism by which "any temporary deficit in power supply in a data
// center is integrated out" (Section IV-C), justifying the coarser supply
// time constant Δ_S = η1·Δ_D.
type UPS struct {
	Capacity     float64 // energy capacity in watt-ticks
	Charge       float64 // current stored energy in watt-ticks
	MaxCharge    float64 // max charging power, watts
	MaxDischarge float64 // max discharging power, watts
	Efficiency   float64 // round-trip efficiency in (0, 1], applied on charge
}

// NewUPS returns a UPS with the given capacity, starting fully charged,
// with symmetric charge/discharge rates and the given round-trip
// efficiency.
func NewUPS(capacity, rate, efficiency float64) *UPS {
	if efficiency <= 0 || efficiency > 1 {
		efficiency = 1
	}
	return &UPS{
		Capacity:     capacity,
		Charge:       capacity,
		MaxCharge:    rate,
		MaxDischarge: rate,
		Efficiency:   efficiency,
	}
}

// Deliver processes one tick: the raw feed supplies supply watts while the
// load demands demand watts. It returns the power actually deliverable to
// the load this tick (never more than demand) after the battery absorbs
// the imbalance, and updates the battery charge.
func (u *UPS) Deliver(supply, demand float64) float64 {
	if supply < 0 {
		supply = 0
	}
	if demand < 0 {
		demand = 0
	}
	if supply >= demand {
		// Surplus: charge the battery with what the load does not need.
		spare := supply - demand
		if spare > u.MaxCharge {
			spare = u.MaxCharge
		}
		u.Charge += spare * u.Efficiency
		if u.Charge > u.Capacity {
			u.Charge = u.Capacity
		}
		return demand
	}
	// Deficit: discharge.
	need := demand - supply
	discharge := need
	if discharge > u.MaxDischarge {
		discharge = u.MaxDischarge
	}
	if discharge > u.Charge {
		discharge = u.Charge
	}
	u.Charge -= discharge
	return supply + discharge
}

// SoC returns the state of charge as a fraction in [0, 1].
func (u *UPS) SoC() float64 {
	if u.Capacity <= 0 {
		return 0
	}
	return u.Charge / u.Capacity
}
