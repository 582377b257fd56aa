package sensor

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Spec is the stochastic sensor-fault model of a run: per-server fault
// windows arrive as a renewal process of mean MTBF ticks and last a mean
// of MTTR ticks; each window picks one fault mode by weight. The
// magnitude fields double as mode enables — a zero magnitude (or weight)
// removes its mode from the draw. The zero Spec injects nothing.
//
// Spec only describes the model; expansion into concrete scheduled
// windows lives in internal/chaos (Schedule.Sensor* fields), keeping all
// fault randomness under the one chaos determinism contract.
type Spec struct {
	// MTBF / MTTR are the per-server mean ticks between sensor-fault
	// windows and the mean window length (both exponential).
	MTBF, MTTR float64
	// Noise is the Gaussian noise stddev (°C); > 0 enables ModeNoise.
	Noise float64
	// Bias is the constant offset magnitude (°C, sign drawn per window);
	// > 0 enables ModeBias.
	Bias float64
	// Drift is the drift rate magnitude (°C per tick, sign drawn per
	// window); > 0 enables ModeDrift.
	Drift float64
	// Stuck and Dropout are the relative draw weights of ModeStuck and
	// ModeDropout (the magnitude-bearing modes weigh 1 each when
	// enabled).
	Stuck, Dropout float64
}

// ParseSpec parses a sensor-fault specification. A spec is a comma-
// separated list whose first element may be a preset — "light", "medium"
// or "heavy" — followed by key=value overrides:
//
//	heavy
//	medium,noise=3
//	mtbf=200,mttr=80,bias=6,dropout=1
//
// Keys: mtbf, mttr (ticks), noise (°C stddev), bias (°C), drift
// (°C/tick), stuck, dropout (draw weights). Values must be non-negative
// and finite.
func ParseSpec(spec string) (Spec, error) {
	var s Spec
	fields := strings.Split(spec, ",")
	for i, f := range fields {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		if !strings.Contains(f, "=") {
			if i != 0 {
				return s, fmt.Errorf("sensor: preset %q must come first in spec %q", f, spec)
			}
			preset, ok := Presets[f]
			if !ok {
				return s, fmt.Errorf("sensor: unknown preset %q (valid presets: %s)", f, strings.Join(Names(), ", "))
			}
			s = preset
			continue
		}
		key, val, _ := strings.Cut(f, "=")
		key = strings.TrimSpace(key)
		v, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if err != nil {
			return s, fmt.Errorf("sensor: bad value in %q: %v", f, err)
		}
		if v < 0 || math.IsInf(v, 0) || math.IsNaN(v) {
			return s, fmt.Errorf("sensor: value in %q must be non-negative and finite", f)
		}
		field, ok := specKeys[key]
		if !ok {
			return s, fmt.Errorf("sensor: unknown key %q in spec %q", key, spec)
		}
		*field(&s) = v
	}
	return s, nil
}

// String renders the spec as a canonical key=value list that ParseSpec
// round-trips; the zero Spec renders empty.
func (s Spec) String() string {
	var parts []string
	add := func(key string, v float64) {
		if v != 0 {
			parts = append(parts, key+"="+strconv.FormatFloat(v, 'g', -1, 64))
		}
	}
	add("mtbf", s.MTBF)
	add("mttr", s.MTTR)
	add("noise", s.Noise)
	add("bias", s.Bias)
	add("drift", s.Drift)
	add("stuck", s.Stuck)
	add("dropout", s.Dropout)
	return strings.Join(parts, ",")
}

// Presets are the named sensor-fault intensity levels, calibrated for
// runs of a few hundred ticks over tens of servers.
var Presets = map[string]Spec{
	"light": {
		MTBF: 400, MTTR: 50,
		Noise: 1.5, Bias: 4,
	},
	"medium": {
		MTBF: 220, MTTR: 80,
		Noise: 2, Bias: 5, Drift: 0.3,
		Stuck: 1,
	},
	"heavy": {
		MTBF: 120, MTTR: 120,
		Noise: 2.5, Bias: 8, Drift: 0.5,
		Stuck: 1, Dropout: 1,
	},
}

// Names returns the valid preset names, sorted — the list surfaced by
// unknown-preset errors and the CLIs' usage text.
func Names() []string {
	names := make([]string, 0, len(Presets))
	for n := range Presets {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// specKeys maps spec keys to their Spec fields.
var specKeys = map[string]func(*Spec) *float64{
	"mtbf":    func(s *Spec) *float64 { return &s.MTBF },
	"mttr":    func(s *Spec) *float64 { return &s.MTTR },
	"noise":   func(s *Spec) *float64 { return &s.Noise },
	"bias":    func(s *Spec) *float64 { return &s.Bias },
	"drift":   func(s *Spec) *float64 { return &s.Drift },
	"stuck":   func(s *Spec) *float64 { return &s.Stuck },
	"dropout": func(s *Spec) *float64 { return &s.Dropout },
}
