package metrics

import (
	"math"
	"math/rand"
	"testing"
)

// refHistogramAdd is Histogram.Add as one function, before it split
// into Index and AddAt: the reference the split must match bit for bit.
func refHistogramAdd(h *Histogram, value, weight float64) {
	if weight <= 0 {
		return
	}
	h.total += weight
	if value > h.maxSeen {
		h.maxSeen = value
	}
	if value < h.min {
		h.under += weight
		return
	}
	idx := int(math.Log(value/h.min) / h.logG)
	if idx >= len(h.buckets) {
		idx = len(h.buckets) - 1
	}
	h.buckets[idx] += weight
}

// TestHistogramAddAtMatchesAdd pins the split: AddAt(Index(v), v, w)
// leaves every bucket, the underflow, the total and the maximum
// bit-identical to the single-function reference Add, over random
// observations and the edges — below min, exactly min, bucket edges,
// past the top bucket, and zero or negative weights.
func TestHistogramAddAtMatchesAdd(t *testing.T) {
	newH := func() *Histogram {
		h, err := NewHistogram(1, 1.25, 32)
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	ref, split := newH(), newH()
	observe := func(v, w float64) {
		refHistogramAdd(ref, v, w)
		split.AddAt(split.Index(v), v, w)
	}
	edges := [][2]float64{
		{0.5, 3}, {0, 1}, {-2, 1}, // below min: the underflow bucket
		{1, 2}, {1.25, 2}, {1.5625, 2}, // min and bucket edges
		{1e3, 4}, {1e9, 1}, {1e300, 1}, // past the top bucket
		{7, 0}, {7, -1}, // non-positive weights are ignored
	}
	for _, e := range edges {
		observe(e[0], e[1])
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		v := math.Exp(rng.Float64()*16 - 2) // 0.14 .. 8.9e5, every bucket
		observe(v, rng.Float64()*100)
	}

	same := math.Float64bits(split.total) == math.Float64bits(ref.total) &&
		math.Float64bits(split.under) == math.Float64bits(ref.under) &&
		math.Float64bits(split.maxSeen) == math.Float64bits(ref.maxSeen)
	for i := range ref.buckets {
		same = same && math.Float64bits(split.buckets[i]) == math.Float64bits(ref.buckets[i])
	}
	if !same {
		t.Error("AddAt(Index) diverged from the reference Add")
	}
	for _, q := range []float64{0, 0.01, 0.5, 0.95, 0.999, 1} {
		if got, want := split.Quantile(q), ref.Quantile(q); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("Quantile(%v) = %v, reference %v", q, got, want)
		}
	}
	if got := split.Index(0.5); got != -1 {
		t.Errorf("Index below min = %d, want -1", got)
	}
	if got := split.Index(1e9); got != len(split.buckets)-1 {
		t.Errorf("Index past the top = %d, want the last bucket %d", got, len(split.buckets)-1)
	}
}

// logFormIndex is Index as the log form defines it: the oracle the
// edge table must reproduce for every value.
func logFormIndex(min, growth float64, buckets int, value float64) int {
	if value < min {
		return -1
	}
	idx := int(math.Log(value/min) / math.Log(growth))
	if idx >= buckets {
		idx = buckets - 1
	}
	return idx
}

// ulpStep returns the float d representable steps above v (below for
// negative d), for v > 0.
func ulpStep(v float64, d int64) float64 {
	return math.Float64frombits(uint64(int64(math.Float64bits(v)) + d))
}

// histogramLayouts are the queueing tracker's stretch histogram and a
// sub-unit minimum with coarser buckets, for which values past about
// 1.8e303 overflow value/min.
var histogramLayouts = []struct {
	min, growth float64
	buckets     int
}{
	{1, 1.25, 32},
	{1e-5, 1.5, 48},
}

// TestHistogramIndexMatchesLogForm checks the edge table against the
// log form for the layouts in use: 10,000 floats either side of every
// bucket edge, random values across and past the range, and the
// non-finite and overflowing values the log form handles itself.
func TestHistogramIndexMatchesLogForm(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, l := range histogramLayouts {
		h, err := NewHistogram(l.min, l.growth, l.buckets)
		if err != nil {
			t.Fatal(err)
		}
		check := func(v float64) {
			if got, want := h.Index(v), logFormIndex(l.min, l.growth, l.buckets, v); got != want {
				t.Fatalf("layout %v/%v/%d: Index(%v) = %d, log form %d", l.min, l.growth, l.buckets, v, got, want)
			}
		}
		for k := 0; k <= l.buckets; k++ {
			e := l.min * math.Pow(l.growth, float64(k))
			for d := int64(-10000); d <= 10000; d++ {
				check(ulpStep(e, d))
			}
		}
		for i := 0; i < 100000; i++ {
			check(l.min * math.Exp(rng.Float64()*float64(l.buckets+8)*math.Log(l.growth)-4))
		}
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1), -1,
			math.MaxFloat64, math.SmallestNonzeroFloat64, l.min * math.MaxFloat64 / 2, 1.8e303, 1e304} {
			check(v)
		}
	}
}

// FuzzHistogramIndex fuzzes the edge table against the log form over
// valid layouts and any value: the value itself, its neighbours, and
// every edge of the table with its neighbours.
func FuzzHistogramIndex(f *testing.F) {
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.MaxFloat64, 1.8e303, 2e303, 1e305}
	for _, l := range histogramLayouts {
		h, err := NewHistogram(l.min, l.growth, l.buckets)
		if err != nil {
			f.Fatal(err)
		}
		for _, e := range h.edges {
			for d := int64(-1); d <= 1; d++ {
				f.Add(l.min, l.growth, l.buckets, ulpStep(e, d))
			}
		}
		for _, v := range specials {
			f.Add(l.min, l.growth, l.buckets, v)
		}
	}
	f.Fuzz(func(t *testing.T, min, growth float64, buckets int, value float64) {
		if !(min > 0) || math.IsInf(min, 1) || !(growth > 1) || math.IsInf(growth, 1) || buckets < 1 || buckets > 256 {
			t.Skip()
		}
		h, err := NewHistogram(min, growth, buckets)
		if err != nil {
			t.Fatal(err)
		}
		check := func(v float64) {
			if got, want := h.Index(v), logFormIndex(min, growth, buckets, v); got != want {
				t.Fatalf("layout %v/%v/%d: Index(%v) = %d, log form %d", min, growth, buckets, v, got, want)
			}
		}
		check(value)
		if value > 0 && !math.IsInf(value, 1) && !math.IsNaN(value) {
			check(ulpStep(value, -1))
			check(ulpStep(value, 1))
		}
		for _, e := range h.edges {
			if e > 0 && !math.IsInf(e, 1) {
				check(ulpStep(e, -1))
				check(e)
				check(ulpStep(e, 1))
			}
		}
	})
}
