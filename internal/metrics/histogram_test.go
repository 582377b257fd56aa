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
// and Add(v, w) leave every bucket, the underflow, the total and the
// maximum bit-identical to the single-function reference, over random
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
	ref, split, add := newH(), newH(), newH()
	observe := func(v, w float64) {
		refHistogramAdd(ref, v, w)
		split.AddAt(split.Index(v), v, w)
		add.Add(v, w)
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

	for name, h := range map[string]*Histogram{"AddAt(Index)": split, "Add": add} {
		same := math.Float64bits(h.total) == math.Float64bits(ref.total) &&
			math.Float64bits(h.under) == math.Float64bits(ref.under) &&
			math.Float64bits(h.maxSeen) == math.Float64bits(ref.maxSeen)
		for i := range ref.buckets {
			same = same && math.Float64bits(h.buckets[i]) == math.Float64bits(ref.buckets[i])
		}
		if !same {
			t.Errorf("%s diverged from the reference Add", name)
		}
		for _, q := range []float64{0, 0.01, 0.5, 0.95, 0.999, 1} {
			if got, want := h.Quantile(q), ref.Quantile(q); math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("%s: Quantile(%v) = %v, reference %v", name, q, got, want)
			}
		}
	}
	if got := split.Index(0.5); got != -1 {
		t.Errorf("Index below min = %d, want -1", got)
	}
	if got := split.Index(1e9); got != len(split.buckets)-1 {
		t.Errorf("Index past the top = %d, want the last bucket %d", got, len(split.buckets)-1)
	}
}
