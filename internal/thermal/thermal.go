// Package thermal implements the energy–temperature relationship of
// Willow (Section III-A of the paper).
//
// A component's temperature follows the first-order linear ODE
//
//	dT/dt = c1·P(t) − c2·(T(t) − Ta)
//
// where P is power draw, Ta the ambient temperature and c1, c2 device
// thermal constants (heating gain and cooling rate). For constant power
// over a window Δ the equation has the closed form used throughout
// Willow's control decisions (the paper's Eq. 2/3):
//
//	T(t+Δ) = Ta + (T(t) − Ta)·e^(−c2·Δ) + (c1·P/c2)·(1 − e^(−c2·Δ))
//
// Inverting it for P yields PowerLimit: the largest constant power that
// keeps the component at or below its thermal limit through the next
// adjustment window. That power cap is the hard constraint Willow's
// supply-side allocation enforces per node.
//
// The package also provides least-squares calibration of (c1, c2) from a
// (power, temperature) trace, reproducing the paper's parameter
// estimation experiments (Fig. 4 for the simulation constants, Fig. 14
// for the testbed).
package thermal

import (
	"errors"
	"fmt"
	"math"
)

// Model captures the thermal characteristics of one device.
type Model struct {
	C1      float64 // heating constant (°C per watt per time unit)
	C2      float64 // cooling constant (fraction of excess temperature shed per time unit)
	Ambient float64 // Ta, °C
	Limit   float64 // T_limit, °C
}

// Validate reports whether the model's constants are physically sensible.
// Non-finite constants are rejected explicitly: NaN fails every ordered
// comparison, so a NaN C1 would otherwise sail through the positivity
// checks and poison every downstream Step/PowerLimit computation.
func (m Model) Validate() error {
	for _, f := range [...]struct {
		name string
		v    float64
	}{{"c1", m.C1}, {"c2", m.C2}, {"ambient", m.Ambient}, {"limit", m.Limit}} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("thermal: %s must be finite, got %v", f.name, f.v)
		}
	}
	switch {
	case m.C1 <= 0:
		return fmt.Errorf("thermal: c1 must be positive, got %v", m.C1)
	case m.C2 <= 0:
		return fmt.Errorf("thermal: c2 must be positive, got %v", m.C2)
	case m.Limit <= m.Ambient:
		return fmt.Errorf("thermal: limit %v °C must exceed ambient %v °C", m.Limit, m.Ambient)
	}
	return nil
}

// Step returns the temperature after holding constant power p for dt time
// units starting from temperature t0 (closed-form Eq. 2).
func (m Model) Step(t0, p, dt float64) float64 {
	decay := math.Exp(-m.C2 * dt)
	return m.Ambient + (t0-m.Ambient)*decay + (m.C1*p/m.C2)*(1-decay)
}

// SteadyState returns the temperature the device converges to if power p
// is held forever: Ta + c1·p/c2. Only tests call it: it is the fixed
// point TestStepHeatsTowardSteadyState checks Step against.
func (m Model) SteadyState(p float64) float64 {
	return m.Ambient + m.C1*p/m.C2
}

// SteadyStatePowerLimit returns the largest constant power sustainable
// forever without crossing the thermal limit.
func (m Model) SteadyStatePowerLimit() float64 {
	return m.C2 * (m.Limit - m.Ambient) / m.C1
}

// PowerLimit returns the maximum constant power over the next window of dt
// time units that keeps the end-of-window temperature at or below the
// thermal limit, starting from temperature t0 (the paper's Eq. 3 solved
// for P). The result is clamped to be non-negative: a device already over
// its limit gets a zero budget and must cool.
func (m Model) PowerLimit(t0, dt float64) float64 {
	decay := math.Exp(-m.C2 * dt)
	den := m.C1 * (1 - decay)
	if den <= 0 {
		// dt == 0 (or pathological constants): no heating can occur within
		// the window, so the thermal constraint cannot bind.
		return math.Inf(1)
	}
	p := m.C2 * (m.Limit - m.Ambient - (t0-m.Ambient)*decay) / den
	if p < 0 {
		return 0
	}
	return p
}

// State tracks the evolving temperature of one device under a Model.
type State struct {
	Model Model
	T     float64 // current temperature, °C

	// memoDt / memoDecay cache e^(−c2·dt) for the last dt Advance saw.
	// Simulations advance every device by the same fixed dt every tick,
	// so the transcendental is paid once per device instead of once per
	// device-tick; the cached factor is the exact value Step would
	// recompute, keeping Advance bit-identical to the uncached form.
	memoDt, memoDecay float64
	hasMemo           bool
}

// NewState returns a State starting at the ambient temperature, the
// temperature an unpowered device settles to.
func NewState(m Model) *State {
	return &State{Model: m, T: m.Ambient}
}

// Advance applies power p for dt time units and returns the new
// temperature.
func (s *State) Advance(p, dt float64) float64 {
	if !s.hasMemo || dt != s.memoDt {
		s.memoDt = dt
		s.memoDecay = math.Exp(-s.Model.C2 * dt)
		s.hasMemo = true
	}
	decay := s.memoDecay
	m := s.Model
	s.T = m.Ambient + (s.T-m.Ambient)*decay + (m.C1*p/m.C2)*(1-decay)
	return s.T
}

// Headroom returns the temperature margin to the limit (negative when
// over the limit).
func (s *State) Headroom() float64 { return s.Model.Limit - s.T }

// Sample is one observation of a calibration trace: the power held during
// a step of length Dt that moved the device from T0 to T1.
type Sample struct {
	T0, T1 float64 // temperature at the start and end of the step, °C
	P      float64 // constant power during the step, watts
	Dt     float64 // step length, time units
}

// Calibrate estimates (c1, c2) from a trace by linear least squares on the
// discretised ODE:
//
//	(T1 − T0)/Dt ≈ c1·P − c2·(T0 − Ta)
//
// which is linear in the unknowns (c1, c2). This mirrors how the paper
// fits the constants from the testbed's power analyzer + CPU sensor data
// (Section V-C2, Fig. 14). At least two samples with non-degenerate
// (P, T0−Ta) variation are required.
func Calibrate(samples []Sample, ambient float64) (c1, c2 float64, err error) {
	if len(samples) < 2 {
		return 0, 0, errors.New("thermal: calibration needs at least 2 samples")
	}
	// Normal equations for y = c1·x1 − c2·x2 with
	// y = ΔT/Dt, x1 = P, x2 = T0 − Ta.
	var s11, s12, s22, s1y, s2y float64
	for _, sm := range samples {
		if sm.Dt <= 0 {
			return 0, 0, fmt.Errorf("thermal: sample has non-positive Dt %v", sm.Dt)
		}
		y := (sm.T1 - sm.T0) / sm.Dt
		x1 := sm.P
		x2 := sm.T0 - ambient
		s11 += x1 * x1
		s12 += x1 * x2
		s22 += x2 * x2
		s1y += x1 * y
		s2y += x2 * y
	}
	det := s11*s22 - s12*s12
	if math.Abs(det) < 1e-12 {
		return 0, 0, errors.New("thermal: calibration trace is degenerate (power and temperature excess are collinear)")
	}
	// Solve [s11 s12; s12 s22] [a; b] = [s1y; s2y] where a = c1, b = −c2.
	a := (s1y*s22 - s2y*s12) / det
	b := (s11*s2y - s12*s1y) / det
	return a, -b, nil
}

// CalibrationError returns the root-mean-square error of the fitted
// constants against the trace, in °C per time unit. Useful for judging
// whether a fit is trustworthy.
func CalibrationError(samples []Sample, ambient, c1, c2 float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	var sum float64
	for _, sm := range samples {
		pred := c1*sm.P - c2*(sm.T0-ambient)
		got := (sm.T1 - sm.T0) / sm.Dt
		d := pred - got
		sum += d * d
	}
	return math.Sqrt(sum / float64(len(samples)))
}
