package queueing

import (
	"math"
	"math/rand"
	"testing"
)

// refObserve records one server-tick in one function, before it split into
// Sample and Add: the reference the split must match bit for bit.
func refObserve(t *Tracker, rho, servedWatts, shedWatts float64) {
	if shedWatts > 0 {
		t.shedWeight += shedWatts
	}
	if servedWatts <= 0 {
		return
	}
	if rho >= 1 {
		t.missWeight += servedWatts
		return
	}
	stretchRho := rho
	if stretchRho > 0.999 {
		stretchRho = 0.999
	}
	st := Stretch(stretchRho)
	t.weightedStretch += servedWatts * st
	t.stretchWeight += servedWatts
	t.hist.AddAt(t.hist.Index(st), st, servedWatts)
	if t.SLO.Met(rho) {
		t.okWeight += servedWatts
	} else {
		t.missWeight += servedWatts
	}
}

// TestSampleAddMatchesObserve pins the split: samples prepared up front
// and recorded in order with Add leave a tracker bit-identical to the
// single-function reference Observe — over random
// server-ticks and the edges: saturation (ρ ≥ 1), the 0.999 stretch
// clamp (the histogram's highest stretch), nothing served, shed-only
// ticks, and ρ ≤ 0 (stretch 1, the histogram's minimum). The histogram
// split's own edges are pinned in internal/metrics.
func TestSampleAddMatchesObserve(t *testing.T) {
	slo := SLO{Service: 1, Target: 10}
	ref, split := NewTracker(slo), NewTracker(slo)
	type tick struct{ rho, served, shed float64 }
	ticks := []tick{
		{1, 40, 0}, {1.7, 40, 5}, // saturated
		{0.999, 30, 0}, {0.9995, 30, 0}, {0.99999999, 30, 0}, // the clamp
		{0.5, 0, 0}, {0.5, -3, 0}, {0.5, 0, 12}, // served ≤ 0, shed only
		{-0.4, 20, 0}, {0, 20, 0}, // stretch 1: the bottom edge
		{0.9, 10, 0}, {0.900000001, 10, 0}, // either side of the SLO
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		tk := tick{rho: rng.Float64() * 1.2, served: rng.Float64() * 200}
		if rng.Intn(4) == 0 {
			tk.shed = rng.Float64() * 50
		}
		if rng.Intn(10) == 0 {
			tk.served = 0
		}
		ticks = append(ticks, tk)
	}
	samples := make([]Sample, len(ticks))
	for i, tk := range ticks {
		samples[i] = split.Sample(tk.rho, tk.served, tk.shed)
	}
	for i, tk := range ticks {
		refObserve(ref, tk.rho, tk.served, tk.shed)
		split.Add(samples[i])
	}

	bits := math.Float64bits
	for i, sum := range [][2]float64{
		{split.weightedStretch, ref.weightedStretch},
		{split.stretchWeight, ref.stretchWeight},
		{split.okWeight, ref.okWeight},
		{split.missWeight, ref.missWeight},
		{split.shedWeight, ref.shedWeight},
	} {
		if bits(sum[0]) != bits(sum[1]) {
			t.Errorf("running sum %d is %v, reference %v", i, sum[0], sum[1])
		}
	}
	if got, want := split.MeanStretch(), ref.MeanStretch(); bits(got) != bits(want) {
		t.Errorf("MeanStretch %v, reference %v", got, want)
	}
	if got, want := split.SLOMissFraction(), ref.SLOMissFraction(); bits(got) != bits(want) {
		t.Errorf("SLOMissFraction %v, reference %v", got, want)
	}
	for _, q := range []float64{0.05, 0.5, 0.95, 0.99, 1} {
		if got, want := split.StretchQuantile(q), ref.StretchQuantile(q); bits(got) != bits(want) {
			t.Errorf("StretchQuantile(%v) %v, reference %v", q, got, want)
		}
	}
	if ref.StretchQuantile(1) < 999 {
		t.Errorf("edges never reached the clamped stretch: top quantile %v", ref.StretchQuantile(1))
	}
}
