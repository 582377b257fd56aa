// Package testbed emulates the paper's experimental evaluation platform
// (Section V-C): a cluster of three VMware ESX servers managed from a
// remote control plane, with CPU-bound applications in VMs, an onboard
// CPU temperature sensor, and an Extech power analyzer sampling at
// roughly 2 Hz.
//
// The physical cluster contributes exactly three things to the paper's
// experiments, all of which this package reproduces synthetically (see
// DESIGN.md §5):
//
//   - a utilization→power curve (Table I) — emulated by the linear
//     reconstruction power.TestbedServer;
//   - a thermal response — the paper's own RC model (Eq. 1) at plausible
//     CPU-package constants, read through a noisy sensor;
//   - VM migration with latency — the controller's migration-cost model.
//
// Willow's control path is identical to the one exercised on the real
// hardware: the control plane sees only power, utilization and
// temperature numbers.
package testbed

import (
	"fmt"

	"willow/internal/dist"
	"willow/internal/power"
	"willow/internal/thermal"
)

// HardwareThermal returns the emulated host's "true" thermal constants —
// the physics the sensor observes. They are chosen so a host at full load
// (232 W) settles just below 70 °C, as a CPU package plausibly does; the
// calibration experiment (Fig. 14) estimates constants from traces the
// same way the paper estimated c1 = 0.2, c2 = 0.008 from its hardware.
func HardwareThermal() thermal.Model {
	return thermal.Model{C1: 0.03, C2: 0.16, Ambient: 25, Limit: 70}
}

// Host is one emulated ESX server.
type Host struct {
	Name    string
	Power   power.ServerModel
	Thermal *thermal.State
	// utilization is the current CPU utilization in [0, 1].
	utilization float64
}

// NewHost returns a host with the Table I power curve at ambient
// temperature.
func NewHost(name string) *Host {
	return &Host{
		Name:    name,
		Power:   power.TestbedServer(),
		Thermal: thermal.NewState(HardwareThermal()),
	}
}

// SetUtilization pins the host's CPU utilization (clamped to [0, 1]).
func (h *Host) SetUtilization(u float64) {
	if u < 0 {
		u = 0
	} else if u > 1 {
		u = 1
	}
	h.utilization = u
}

// PowerDraw returns the host's current true power draw in watts.
func (h *Host) PowerDraw() float64 { return h.Power.Power(h.utilization) }

// Advance runs the host for dt time units at its current utilization,
// heating or cooling accordingly.
func (h *Host) Advance(dt float64) {
	h.Thermal.Advance(h.PowerDraw(), dt)
}

// Analyzer emulates the Extech power analyzer: it samples a true power
// value with small zero-mean gaussian error, at a nominal 2 Hz.
type Analyzer struct {
	// NoiseStdDev is the measurement error in watts.
	NoiseStdDev float64
	// SampleHz is the nominal sampling rate (informational; the paper's
	// analyzer ran at about 2 Hz).
	SampleHz float64
	src      *dist.Source
}

// NewAnalyzer returns an analyzer with the given measurement noise.
func NewAnalyzer(noise float64, src *dist.Source) *Analyzer {
	return &Analyzer{NoiseStdDev: noise, SampleHz: 2, src: src}
}

// Sample returns one noisy reading of the true power.
func (a *Analyzer) Sample(truePower float64) float64 {
	if a.NoiseStdDev <= 0 {
		return truePower
	}
	return a.src.Normal(truePower, a.NoiseStdDev)
}

// Sensor emulates the onboard CPU temperature sensor with gaussian read
// noise.
type Sensor struct {
	NoiseStdDev float64
	src         *dist.Source
}

// NewSensor returns a sensor with the given read noise.
func NewSensor(noise float64, src *dist.Source) *Sensor {
	return &Sensor{NoiseStdDev: noise, src: src}
}

// Read returns one noisy temperature reading of the host.
func (s *Sensor) Read(h *Host) float64 {
	if s.NoiseStdDev <= 0 {
		return h.Thermal.T
	}
	return s.src.Normal(h.Thermal.T, s.NoiseStdDev)
}

// MeasureTableI reproduces the paper's Table I baseline experiment: run a
// CPU-intensive load at each utilization step, average analyzer samples,
// and report utilization vs measured power.
func MeasureTableI(samplesPerPoint int, seed uint64) ([]power.UtilPower, error) {
	if samplesPerPoint < 1 {
		return nil, fmt.Errorf("testbed: need at least 1 sample per point")
	}
	src := dist.NewSource(seed)
	h := NewHost("dut")
	an := NewAnalyzer(1.5, src.Fork())
	rows := make([]power.UtilPower, 0, 11)
	for step := 0; step <= 10; step++ {
		u := float64(step) / 10
		h.SetUtilization(u)
		var sum float64
		for i := 0; i < samplesPerPoint; i++ {
			sum += an.Sample(h.PowerDraw())
		}
		rows = append(rows, power.UtilPower{Util: u, Watts: sum / float64(samplesPerPoint)})
	}
	return rows, nil
}

// AppProfile is one Table II row: the measured power increase when the
// application runs on an otherwise idle host.
type AppProfile struct {
	Name  string
	Watts float64
}

// MeasureAppProfiles reproduces Table II: each application is started on
// an idle host and the analyzer measures the increase in draw. The
// applications are CPU-bound, so the increment is their CPU share times
// the host's dynamic power range.
func MeasureAppProfiles(samplesPerPoint int, seed uint64) ([]AppProfile, error) {
	if samplesPerPoint < 1 {
		return nil, fmt.Errorf("testbed: need at least 1 sample per point")
	}
	src := dist.NewSource(seed)
	h := NewHost("dut")
	an := NewAnalyzer(1.0, src.Fork())
	// The paper's measured increments (Table II), expressed as CPU
	// utilization shares of the host's 72.5 W dynamic range.
	apps := []struct {
		name  string
		watts float64
	}{{"A1", 8}, {"A2", 10}, {"A3", 15}}

	measure := func() float64 {
		var sum float64
		for i := 0; i < samplesPerPoint; i++ {
			sum += an.Sample(h.PowerDraw())
		}
		return sum / float64(samplesPerPoint)
	}

	var out []AppProfile
	for _, app := range apps {
		h.SetUtilization(0)
		idle := measure()
		h.SetUtilization(app.watts / h.Power.DynamicRange())
		loaded := measure()
		out = append(out, AppProfile{Name: app.name, Watts: loaded - idle})
	}
	return out, nil
}

// CalibrationResult is the outcome of the Fig. 14 experiment.
type CalibrationResult struct {
	C1, C2 float64 // fitted constants
	RMSE   float64 // fit error, °C per time unit
	// TrueC1, TrueC2 are the emulated hardware's actual constants, for
	// the paper-vs-measured comparison.
	TrueC1, TrueC2 float64
	Samples        int
}

// CalibrateThermal reproduces the parameter-estimation experiment of
// Section V-C2 / Fig. 14: drive the host through a sequence of power
// steps, log (power, temperature) through the noisy sensor and analyzer,
// and least-squares fit the Eq. 1 constants.
func CalibrateThermal(steps int, seed uint64) (*CalibrationResult, error) {
	if steps < 4 {
		return nil, fmt.Errorf("testbed: need at least 4 calibration steps")
	}
	src := dist.NewSource(seed)
	h := NewHost("dut")
	sensor := NewSensor(0.05, src.Fork())
	stepSrc := src.Fork()

	const dt = 0.5
	samples := make([]thermal.Sample, 0, steps)
	prevT := sensor.Read(h)
	for i := 0; i < steps; i++ {
		u := stepSrc.Float64()
		h.SetUtilization(u)
		p := h.PowerDraw()
		h.Advance(dt)
		curT := sensor.Read(h)
		samples = append(samples, thermal.Sample{T0: prevT, T1: curT, P: p, Dt: dt})
		prevT = curT
	}
	hw := HardwareThermal()
	c1, c2, err := thermal.Calibrate(samples, hw.Ambient)
	if err != nil {
		return nil, err
	}
	return &CalibrationResult{
		C1:      c1,
		C2:      c2,
		RMSE:    thermal.CalibrationError(samples, hw.Ambient, c1, c2),
		TrueC1:  hw.C1,
		TrueC2:  hw.C2,
		Samples: len(samples),
	}, nil
}
