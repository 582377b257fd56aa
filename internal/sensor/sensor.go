// Package sensor models the imperfect temperature instruments of a real
// data center. The control packages (internal/core) never read physical
// state directly; every temperature passes through a Sensor, which is a
// transparent window onto the truth until a fault is armed on it.
//
// Fault modes cover the classic instrument failure taxonomy: additive
// Gaussian noise, constant bias, linear drift, stuck-at (the reading
// freezes at the value observed when the fault struck) and dropout (the
// sensor returns NaN). Faults are armed and cleared from the outside —
// typically by a chaos plan's scheduled sensor-fault windows (see
// internal/chaos) — so a run's corruption sequence is a deterministic
// function of its seed, like every other source of randomness in the
// simulator.
package sensor

import (
	"fmt"
	"math"

	"willow/internal/dist"
)

// Mode discriminates sensor fault types. The zero Mode is a healthy
// sensor.
type Mode uint8

const (
	// ModeNone is a healthy sensor: readings equal the truth exactly.
	ModeNone Mode = iota
	// ModeNoise adds zero-mean Gaussian noise of stddev Magnitude (°C)
	// to every reading.
	ModeNoise
	// ModeBias adds the signed constant Magnitude (°C) to every reading.
	ModeBias
	// ModeDrift adds Magnitude (°C per tick, signed) times the ticks
	// elapsed since the fault struck — a slowly wandering calibration.
	ModeDrift
	// ModeStuck freezes the reading at the truth observed when the fault
	// struck.
	ModeStuck
	// ModeDropout returns NaN: the instrument has gone silent.
	ModeDropout

	numModes = int(ModeDropout)
)

// modeNames are the wire names used in specs, telemetry causes and logs.
var modeNames = [...]string{
	ModeNone:    "none",
	ModeNoise:   "noise",
	ModeBias:    "bias",
	ModeDrift:   "drift",
	ModeStuck:   "stuck",
	ModeDropout: "dropout",
}

// String returns the mode's wire name.
func (m Mode) String() string {
	if int(m) <= numModes {
		return modeNames[m]
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// Fault is one armed failure: a mode plus its magnitude (noise stddev,
// signed bias offset, or signed drift rate; unused for stuck/dropout).
type Fault struct {
	Mode      Mode
	Magnitude float64
}

// Sensor is one temperature instrument. The zero fault state is a
// perfect pass-through; Read never draws randomness unless a noise
// fault is active, so attaching healthy sensors to a run perturbs no
// random stream.
type Sensor struct {
	src *dist.Source

	fault    Fault
	since    int // tick the active fault struck (drift ramp origin)
	stuck    float64
	hasStuck bool
}

// New returns a healthy sensor drawing its noise from src (which must
// be private to this sensor for determinism; nil gets a fixed stream).
func New(src *dist.Source) *Sensor {
	if src == nil {
		src = dist.NewSource(0)
	}
	return &Sensor{src: src}
}

// Set arms a fault at the given tick, replacing any active one.
func (s *Sensor) Set(f Fault, tick int) {
	s.fault = f
	s.since = tick
	s.hasStuck = false
}

// Clear returns the sensor to healthy pass-through.
func (s *Sensor) Clear() {
	s.fault = Fault{}
	s.hasStuck = false
}

// Read reports the instrument's view of the true value at the given
// tick. Healthy sensors return the truth bit-for-bit.
func (s *Sensor) Read(truth float64, tick int) float64 {
	switch s.fault.Mode {
	case ModeNoise:
		return truth + s.src.Normal(0, s.fault.Magnitude)
	case ModeBias:
		return truth + s.fault.Magnitude
	case ModeDrift:
		return truth + s.fault.Magnitude*float64(tick-s.since)
	case ModeStuck:
		if !s.hasStuck {
			s.stuck = truth
			s.hasStuck = true
		}
		return s.stuck
	case ModeDropout:
		return math.NaN()
	default:
		return truth
	}
}
