package binpack

import (
	"math"
	"testing"
	"testing/quick"

	"willow/internal/dist"
)

func itemsOf(p Packing) map[int]bool {
	set := map[int]bool{}
	for _, b := range p.Bins {
		for _, it := range b.Items {
			set[it] = true
		}
	}
	return set
}

// checkPacking verifies structural invariants every packing must satisfy:
// all items placed exactly once, no bin overfilled, capacity bookkeeping
// consistent.
func checkPacking(t *testing.T, name string, items []float64, p Packing) {
	t.Helper()
	seen := map[int]int{}
	total := 0.0
	for bi, b := range p.Bins {
		used := 0.0
		for _, it := range b.Items {
			seen[it]++
			used += items[it]
		}
		if math.Abs(used-b.Used) > 1e-6 {
			t.Errorf("%s: bin %d reports used %v, actual %v", name, bi, b.Used, used)
		}
		if used > b.Size+1e-6 {
			t.Errorf("%s: bin %d overfilled: %v in size %v", name, bi, used, b.Size)
		}
		total += b.Size
	}
	if math.Abs(total-p.TotalCapacity) > 1e-6 {
		t.Errorf("%s: TotalCapacity %v != sum of bin sizes %v", name, p.TotalCapacity, total)
	}
	for i := range items {
		if seen[i] != 1 {
			t.Errorf("%s: item %d placed %d times", name, i, seen[i])
		}
	}
}

func TestFFDLREmptyInstance(t *testing.T) {
	p, err := FFDLR(nil, []float64{1})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Bins) != 0 || p.TotalCapacity != 0 {
		t.Errorf("empty instance produced %+v", p)
	}
}

func TestFFDLRSingleItem(t *testing.T) {
	p, err := FFDLR([]float64{0.4}, []float64{0.5, 1.0})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Bins) != 1 {
		t.Fatalf("want 1 bin, got %d", len(p.Bins))
	}
	// Repack step must have shrunk the bin to the 0.5 size.
	if p.Bins[0].Size != 0.5 {
		t.Errorf("repack chose size %v, want 0.5", p.Bins[0].Size)
	}
}

func TestFFDLRRepackShrinksBins(t *testing.T) {
	// Items sum to 0.3 per bin; FFD opens size-1 bins, repack must shrink
	// each to 0.3-capable bins.
	items := []float64{0.3, 0.3, 0.3}
	sizes := []float64{0.3, 1.0}
	p, err := FFDLR(items, sizes)
	if err != nil {
		t.Fatal(err)
	}
	checkPacking(t, "FFDLR", items, p)
	// FFD puts 0.3+0.3+0.3 in one size-1 bin (fits: 0.9<=1), repack keeps
	// it in a size-1 bin. TotalCapacity must be 1, not 3.
	if p.TotalCapacity > 1+1e-9 {
		t.Errorf("TotalCapacity = %v, want <= 1", p.TotalCapacity)
	}
}

func TestFFDLRRejectsOversizeItem(t *testing.T) {
	if _, err := FFDLR([]float64{2}, []float64{1}); err == nil {
		t.Error("item larger than largest bin accepted")
	}
}

func TestFFDLRRejectsBadSizes(t *testing.T) {
	if _, err := FFDLR([]float64{0.5}, nil); err == nil {
		t.Error("empty size list accepted")
	}
	if _, err := FFDLR([]float64{0.5}, []float64{0, 1}); err == nil {
		t.Error("zero bin size accepted")
	}
	if _, err := FFDLR([]float64{-0.5}, []float64{1}); err == nil {
		t.Error("negative item accepted")
	}
}

func TestExactSmallInstances(t *testing.T) {
	cases := []struct {
		name  string
		items []float64
		sizes []float64
		want  float64 // optimal total capacity
	}{
		{"single", []float64{0.4}, []float64{0.5, 1}, 0.5},
		{"pair fits small bins", []float64{0.4, 0.4}, []float64{0.4, 1}, 0.8},
		{"pair shares big bin", []float64{0.4, 0.4}, []float64{0.8, 1}, 0.8},
		{"three thirds", []float64{1.0 / 3, 1.0 / 3, 1.0 / 3}, []float64{1}, 1},
		{"mixed", []float64{0.7, 0.3, 0.3, 0.3}, []float64{0.3, 0.7, 1}, 1.6},
	}
	for _, c := range cases {
		p, err := Exact(c.items, c.sizes)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		checkPacking(t, "Exact/"+c.name, c.items, p)
		if math.Abs(p.TotalCapacity-c.want) > 1e-6 {
			t.Errorf("%s: Exact total = %v, want %v", c.name, p.TotalCapacity, c.want)
		}
	}
}

func TestExactNeverWorseThanFFDLR(t *testing.T) {
	src := dist.NewSource(21)
	for trial := 0; trial < 60; trial++ {
		n := 2 + src.Intn(8)
		items := make([]float64, n)
		for i := range items {
			items[i] = src.Uniform(0.05, 1)
		}
		sizes := []float64{0.25, 0.5, 1}
		opt, err := Exact(items, sizes)
		if err != nil {
			t.Fatal(err)
		}
		heur, err := FFDLR(items, sizes)
		if err != nil {
			t.Fatal(err)
		}
		if opt.TotalCapacity > heur.TotalCapacity+1e-9 {
			t.Fatalf("trial %d: Exact (%v) worse than FFDLR (%v)", trial, opt.TotalCapacity, heur.TotalCapacity)
		}
	}
}

// TestFFDLRBound verifies the paper's quoted guarantee: FFDLR total
// capacity <= (3/2)·OPT + 1 in units where the largest bin has size 1
// (Section IV-F; Friesen & Langston).
func TestFFDLRBound(t *testing.T) {
	src := dist.NewSource(7)
	sizes := []float64{0.2, 0.35, 0.6, 1}
	for trial := 0; trial < 120; trial++ {
		n := 2 + src.Intn(9)
		items := make([]float64, n)
		for i := range items {
			items[i] = src.Uniform(0.01, 1)
		}
		opt, err := Exact(items, sizes)
		if err != nil {
			t.Fatal(err)
		}
		heur, err := FFDLR(items, sizes)
		if err != nil {
			t.Fatal(err)
		}
		checkPacking(t, "FFDLR", items, heur)
		if heur.TotalCapacity > 1.5*opt.TotalCapacity+1+1e-9 {
			t.Errorf("trial %d: FFDLR %v exceeds 1.5·OPT+1 = %v (items %v)",
				trial, heur.TotalCapacity, 1.5*opt.TotalCapacity+1, items)
		}
	}
}

// Property: FFDLR always produces a structurally valid packing for random
// feasible instances.
func TestFFDLRValidQuick(t *testing.T) {
	f := func(seed uint64, rawN uint8) bool {
		src := dist.NewSource(seed)
		n := int(rawN%40) + 1
		items := make([]float64, n)
		for i := range items {
			items[i] = src.Uniform(0, 1)
		}
		sizes := []float64{0.25, 0.5, 0.75, 1}
		p, err := FFDLR(items, sizes)
		if err != nil {
			return false
		}
		placed := itemsOf(p)
		if len(placed) != n {
			return false
		}
		for _, b := range p.Bins {
			if b.Used > b.Size+1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestFitTree(t *testing.T) {
	tr := newFitTree(8)
	if got := tr.firstFit(1); got != 0 {
		t.Errorf("empty tree firstFit = %d, want 0 (open new)", got)
	}
	tr.open(10)
	tr.open(5)
	tr.open(7)
	if got := tr.firstFit(6); got != 0 {
		t.Errorf("firstFit(6) = %d, want 0", got)
	}
	tr.consume(0, 9) // bin0 remaining 1
	if got := tr.firstFit(6); got != 2 {
		t.Errorf("firstFit(6) after consume = %d, want 2", got)
	}
	if got := tr.firstFit(1); got != 0 {
		t.Errorf("firstFit(1) = %d, want 0 (leftmost)", got)
	}
	if got := tr.firstFit(100); got != 3 {
		t.Errorf("firstFit(100) = %d, want 3 (open new)", got)
	}
	if got := tr.remaining(0); math.Abs(got-1) > 1e-12 {
		t.Errorf("remaining(0) = %v, want 1", got)
	}
}

func TestFitTreeCapacityPanic(t *testing.T) {
	tr := newFitTree(1)
	tr.open(1)
	defer func() {
		if recover() == nil {
			t.Error("opening beyond capacity did not panic")
		}
	}()
	tr.open(1)
}

// Property: fitTree.firstFit always agrees with a linear scan.
func TestFitTreeMatchesLinearScanQuick(t *testing.T) {
	f := func(seed uint64, ops uint8) bool {
		src := dist.NewSource(seed)
		n := int(ops%50) + 1
		tr := newFitTree(n)
		var linear []float64
		for i := 0; i < n; i++ {
			if len(linear) == 0 || src.Float64() < 0.5 {
				c := src.Uniform(0, 10)
				tr.open(c)
				linear = append(linear, c)
			} else {
				b := src.Intn(len(linear))
				amt := src.Uniform(0, linear[b])
				tr.consume(b, amt)
				linear[b] -= amt
			}
			q := src.Uniform(0, 12)
			want := len(linear)
			for j, r := range linear {
				if r+1e-9 >= q {
					want = j
					break
				}
			}
			if got := tr.firstFit(q); got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func BenchmarkFFDLR1000(b *testing.B) {
	src := dist.NewSource(1)
	items := make([]float64, 1000)
	for i := range items {
		items[i] = src.Uniform(0.01, 1)
	}
	sizes := []float64{0.25, 0.5, 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FFDLR(items, sizes); err != nil {
			b.Fatal(err)
		}
	}
}
