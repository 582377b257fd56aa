package metrics

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestWelford(t *testing.T) {
	var w Welford
	if w.Mean() != 0 || w.Variance() != 0 || w.N() != 0 {
		t.Error("zero Welford not zero")
	}
	data := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	for _, x := range data {
		w.Add(x)
	}
	if w.N() != len(data) {
		t.Errorf("N = %d", w.N())
	}
	if got := w.Mean(); math.Abs(got-5) > 1e-12 {
		t.Errorf("Mean = %v, want 5", got)
	}
	if got := w.Variance(); math.Abs(got-4) > 1e-12 {
		t.Errorf("Variance = %v, want 4", got)
	}
	if got := w.StdDev(); math.Abs(got-2) > 1e-12 {
		t.Errorf("StdDev = %v, want 2", got)
	}
}

func TestWelfordSingleSample(t *testing.T) {
	var w Welford
	w.Add(42)
	if w.Variance() != 0 {
		t.Errorf("variance of one sample = %v", w.Variance())
	}
	if w.Mean() != 42 {
		t.Errorf("mean = %v", w.Mean())
	}
}

// Property: Welford agrees with the naive two-pass computation.
func TestWelfordMatchesNaiveQuick(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		var w Welford
		var sum float64
		for _, r := range raw {
			w.Add(float64(r))
			sum += float64(r)
		}
		mean := sum / float64(len(raw))
		var ss float64
		for _, r := range raw {
			d := float64(r) - mean
			ss += d * d
		}
		wantVar := 0.0
		if len(raw) >= 2 {
			wantVar = ss / float64(len(raw))
		}
		return math.Abs(w.Mean()-mean) < 1e-9 && math.Abs(w.Variance()-wantVar) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTableString(t *testing.T) {
	tb := NewTable("Table I", "Utilization %", "Power (W)")
	tb.AddRow("0", "159.5")
	tb.AddRow("100", "232")
	s := tb.String()
	if !strings.Contains(s, "Table I") {
		t.Error("title missing")
	}
	if !strings.Contains(s, "Utilization %") || !strings.Contains(s, "159.5") {
		t.Errorf("table content missing:\n%s", s)
	}
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	// title + header + rule + 2 rows
	if len(lines) != 5 {
		t.Errorf("rendered %d lines, want 5:\n%s", len(lines), s)
	}
}

func TestTableRowMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("mismatched row did not panic")
		}
	}()
	NewTable("t", "a", "b").AddRow("only-one")
}

func TestTableCSV(t *testing.T) {
	tb := NewTable("ignored", "name", "value")
	tb.AddRow("plain", "1")
	tb.AddRow(`has "quote", and comma`, "2")
	csv := tb.CSV()
	lines := strings.Split(strings.TrimRight(csv, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("CSV has %d lines, want 3", len(lines))
	}
	if lines[0] != "name,value" {
		t.Errorf("header = %q", lines[0])
	}
	if !strings.Contains(lines[2], `"has ""quote"", and comma"`) {
		t.Errorf("quoting wrong: %q", lines[2])
	}
}

func BenchmarkWelfordAdd(b *testing.B) {
	var w Welford
	for i := 0; i < b.N; i++ {
		w.Add(float64(i % 1000))
	}
}

func TestHistogramValidation(t *testing.T) {
	if _, err := NewHistogram(0, 2, 4); err == nil {
		t.Error("zero min accepted")
	}
	if _, err := NewHistogram(1, 1, 4); err == nil {
		t.Error("growth 1 accepted")
	}
	if _, err := NewHistogram(1, 2, 0); err == nil {
		t.Error("zero buckets accepted")
	}
}

// add records one observation as the histogram's callers do: Index,
// then AddAt.
func add(h *Histogram, value, weight float64) { h.AddAt(h.Index(value), value, weight) }

func TestHistogramQuantiles(t *testing.T) {
	h, err := NewHistogram(1, 2, 10) // buckets [1,2) [2,4) ... [512,1024)
	if err != nil {
		t.Fatal(err)
	}
	if got := h.Quantile(0.5); got != 0 {
		t.Errorf("empty quantile = %v", got)
	}
	// 90 units of weight at ~1.5, 10 at ~100.
	add(h, 1.5, 90)
	add(h, 100, 10)
	if got := h.Quantile(0.5); got > 2 {
		t.Errorf("p50 = %v, want within the first bucket (<= 2)", got)
	}
	p95 := h.Quantile(0.95)
	if p95 < 64 || p95 > 128 {
		t.Errorf("p95 = %v, want in the bucket containing 100", p95)
	}
	if h.Total() != 100 {
		t.Errorf("Total = %v", h.Total())
	}
	if got := h.Quantile(1); got != 100 {
		t.Errorf("p100 = %v, want the largest value seen, 100", got)
	}
}

func TestHistogramUnderAndOverflow(t *testing.T) {
	h, _ := NewHistogram(10, 2, 3) // covers [10, 80)
	add(h, 1, 50)                  // underflow
	add(h, 1e6, 50)                // overflow -> top bucket, capped at maxSeen
	if got := h.Quantile(0.25); got != 10 {
		t.Errorf("underflow quantile = %v, want min 10", got)
	}
	if got := h.Quantile(0.99); got != 1e6 {
		t.Errorf("overflow quantile = %v, want maxSeen 1e6", got)
	}
	add(h, 5, 0) // zero weight ignored
	if h.Total() != 100 {
		t.Errorf("Total = %v", h.Total())
	}
}

// Property: quantiles are monotone in q and bounded by [min, maxSeen].
func TestHistogramMonotoneQuick(t *testing.T) {
	f := func(raw []uint16) bool {
		h, err := NewHistogram(0.5, 1.5, 24)
		if err != nil {
			return false
		}
		for _, r := range raw {
			add(h, float64(r%2000)/10+0.01, float64(r%7)+1)
		}
		prev := 0.0
		for q := 0.0; q <= 1.0; q += 0.05 {
			v := h.Quantile(q)
			if v < prev-1e-9 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTableMarkdown(t *testing.T) {
	tb := NewTable("Caption", "a", "b")
	tb.AddRow("1", "has|pipe")
	md := tb.Markdown()
	if !strings.Contains(md, "**Caption**") {
		t.Error("caption missing")
	}
	if !strings.Contains(md, "| a | b |") {
		t.Errorf("header wrong:\n%s", md)
	}
	if !strings.Contains(md, "|---|---|") {
		t.Error("separator missing")
	}
	if !strings.Contains(md, `has\|pipe`) {
		t.Errorf("pipe not escaped:\n%s", md)
	}
}
