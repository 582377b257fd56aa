package queueing

import (
	"math"
	"math/rand"
	"testing"
)

// refObserve is Tracker.Observe as one function, before it split into
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
	t.hist.Add(st, servedWatts)
	if t.SLO.Met(rho) {
		t.okWeight += servedWatts
	} else {
		t.missWeight += servedWatts
	}
}

// TestSampleAddMatchesObserve pins the split: samples prepared up front
// and recorded in order with Add, and Observe itself, leave a tracker
// bit-identical to the single-function reference — over random
// server-ticks and the edges: saturation (ρ ≥ 1), the 0.999 stretch
// clamp (the histogram's highest stretch), nothing served, shed-only
// ticks, and ρ ≤ 0 (stretch 1, the histogram's minimum). The histogram
// split's own edges are pinned in internal/metrics.
func TestSampleAddMatchesObserve(t *testing.T) {
	slo := SLO{Service: 1, Target: 10}
	ref, split, observe := NewTracker(slo), NewTracker(slo), NewTracker(slo)
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
		observe.Observe(tk.rho, tk.served, tk.shed)
	}

	bits := math.Float64bits
	for name, tr := range map[string]*Tracker{"Add(Sample)": split, "Observe": observe} {
		for i, sum := range [][2]float64{
			{tr.weightedStretch, ref.weightedStretch},
			{tr.stretchWeight, ref.stretchWeight},
			{tr.okWeight, ref.okWeight},
			{tr.missWeight, ref.missWeight},
			{tr.shedWeight, ref.shedWeight},
		} {
			if bits(sum[0]) != bits(sum[1]) {
				t.Errorf("%s: running sum %d is %v, reference %v", name, i, sum[0], sum[1])
			}
		}
		if got, want := tr.MeanStretch(), ref.MeanStretch(); bits(got) != bits(want) {
			t.Errorf("%s: MeanStretch %v, reference %v", name, got, want)
		}
		if got, want := tr.SLOMissFraction(), ref.SLOMissFraction(); bits(got) != bits(want) {
			t.Errorf("%s: SLOMissFraction %v, reference %v", name, got, want)
		}
		for _, q := range []float64{0.05, 0.5, 0.95, 0.99, 1} {
			if got, want := tr.StretchQuantile(q), ref.StretchQuantile(q); bits(got) != bits(want) {
				t.Errorf("%s: StretchQuantile(%v) %v, reference %v", name, q, got, want)
			}
		}
	}
	if ref.StretchQuantile(1) < 999 {
		t.Errorf("edges never reached the clamped stretch: top quantile %v", ref.StretchQuantile(1))
	}
}
