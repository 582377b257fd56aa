package metrics

import (
	"fmt"
	"math"
)

// Histogram accumulates weighted observations in logarithmic buckets and
// answers quantile queries. Buckets grow geometrically from Min by
// Growth per bucket, which keeps relative quantile error bounded by the
// growth factor across many decades — the right trade for latency-style
// distributions whose tail matters more than their absolute resolution.
//
// A value's bucket is defined by the log form, logIndex, but found by
// looking the value up in a table of the bucket edges that form places:
// NewHistogram bisects for each edge once, so Index costs a few
// comparisons instead of a logarithm.
type Histogram struct {
	min    float64
	growth float64
	logG   float64
	// edges[k] is the smallest value logIndex puts in bucket k+1 or
	// above (over when there is none); over is the smallest value whose
	// value/min overflows. Values at or past over, and NaN, take the log
	// form itself.
	edges   []float64
	over    float64
	buckets []float64 // weight per bucket
	under   float64   // weight below min
	total   float64
	maxSeen float64
}

// NewHistogram returns a histogram covering [min, min·growth^buckets)
// with the given per-bucket growth factor (> 1). min and growth must be
// finite.
func NewHistogram(min, growth float64, buckets int) (*Histogram, error) {
	if !(min > 0) || math.IsInf(min, 1) {
		return nil, fmt.Errorf("metrics: histogram min must be positive and finite, got %v", min)
	}
	if !(growth > 1) || math.IsInf(growth, 1) {
		return nil, fmt.Errorf("metrics: histogram growth must be finite and exceed 1, got %v", growth)
	}
	if buckets < 1 {
		return nil, fmt.Errorf("metrics: histogram needs at least 1 bucket")
	}
	h := &Histogram{
		min:     min,
		growth:  growth,
		logG:    math.Log(growth),
		edges:   make([]float64, buckets-1),
		buckets: make([]float64, buckets),
	}
	h.over = firstWhere(min, math.Inf(1), func(v float64) bool { return math.IsInf(v/min, 1) })
	for k := range h.edges {
		h.edges[k] = firstWhere(min, h.over, func(v float64) bool { return h.logIndex(v) > k })
	}
	return h, nil
}

// firstWhere returns the smallest float64 in [lo, hi) for which pred
// holds, or hi when none does. lo and hi must be non-negative, and pred
// false up to some value and true from there on across [lo, hi): for
// such floats the bit patterns order like the values, so it bisects
// those.
func firstWhere(lo, hi float64, pred func(float64) bool) float64 {
	a, b := math.Float64bits(lo), math.Float64bits(hi)
	for a < b {
		m := a + (b-a)/2
		if pred(math.Float64frombits(m)) {
			b = m
		} else {
			a = m + 1
		}
	}
	return math.Float64frombits(a)
}

// Index returns the bucket value falls in, -1 for the underflow bucket.
// It reads only the bucket layout, so concurrent callers may prepare
// indices for one histogram while a single goroutine records them with
// AddAt.
func (h *Histogram) Index(value float64) int {
	if value < h.min {
		return -1
	}
	if !(value < h.over) {
		return h.logIndex(value)
	}
	// The number of edges at or below value is its bucket.
	lo, hi := 0, len(h.edges)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if value < h.edges[m] {
			hi = m
		} else {
			lo = m + 1
		}
	}
	return lo
}

// logIndex is the bucket of a value at or above min by the log form,
// clamped to the last bucket. Where value/min overflows, or value is
// NaN, the conversion of a non-finite float yields what the platform
// gives (math.MinInt64 on amd64, which AddAt books as underflow).
func (h *Histogram) logIndex(value float64) int {
	idx := int(math.Log(value/h.min) / h.logG)
	if idx >= len(h.buckets) {
		idx = len(h.buckets) - 1
	}
	return idx
}

// AddAt records an observation of the given weight into bucket idx, as
// returned by Index(value). Values below min land in an underflow
// bucket; values beyond the top land in the last bucket (their weight
// still counts toward quantiles as "at least the top edge").
// Non-positive weights are ignored.
func (h *Histogram) AddAt(idx int, value, weight float64) {
	if weight <= 0 {
		return
	}
	h.total += weight
	if value > h.maxSeen {
		h.maxSeen = value
	}
	if idx < 0 {
		h.under += weight
		return
	}
	h.buckets[idx] += weight
}

// Quantile returns an upper bound for the q-quantile (q in [0, 1]) —
// the upper edge of the bucket where the cumulative weight crosses q.
// It returns 0 for an empty histogram.
func (h *Histogram) Quantile(q float64) float64 {
	if h.total <= 0 {
		return 0
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	target := q * h.total
	cum := h.under
	if cum >= target {
		return h.min
	}
	for i, w := range h.buckets {
		cum += w
		if cum >= target {
			upper := h.min * math.Pow(h.growth, float64(i+1))
			if i == len(h.buckets)-1 && h.maxSeen > upper {
				// Overflow bucket: its true upper edge is the largest
				// value ever recorded.
				return h.maxSeen
			}
			if upper > h.maxSeen && h.maxSeen > 0 {
				return h.maxSeen
			}
			return upper
		}
	}
	return h.maxSeen
}

// Total returns the accumulated weight.
func (h *Histogram) Total() float64 { return h.total }
