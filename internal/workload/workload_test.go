package workload

import (
	"math"
	"testing"
	"testing/quick"

	"willow/internal/dist"
)

func TestSimClassesMatchPaper(t *testing.T) {
	classes := SimClasses()
	want := []float64{1, 2, 5, 9}
	if len(classes) != len(want) {
		t.Fatalf("got %d classes, want %d", len(classes), len(want))
	}
	for i, c := range classes {
		if c.Weight != want[i] {
			t.Errorf("class %d weight %v, want %v", i, c.Weight, want[i])
		}
	}
}

func TestAppDemandMean(t *testing.T) {
	src := dist.NewSource(1)
	a := &App{Mean: 50, NoiseLambda: 20}
	const n = 50000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += a.Demand(src)
	}
	got := sum / n
	if math.Abs(got-50)/50 > 0.02 {
		t.Errorf("demand mean = %v, want ~50", got)
	}
}

func TestAppDemandNoNoise(t *testing.T) {
	src := dist.NewSource(1)
	a := &App{Mean: 30, NoiseLambda: 0}
	for i := 0; i < 10; i++ {
		if got := a.Demand(src); got != 30 {
			t.Fatalf("noiseless demand = %v, want 30", got)
		}
	}
}

func TestAppDemandZeroMean(t *testing.T) {
	src := dist.NewSource(1)
	a := &App{Mean: 0, NoiseLambda: 20}
	if got := a.Demand(src); got != 0 {
		t.Errorf("zero-mean demand = %v", got)
	}
}

func TestSetAddRemove(t *testing.T) {
	s := &Set{}
	a := &App{ID: 1, Mean: 5}
	b := &App{ID: 2, Mean: 7}
	s.Add(a)
	s.Add(b)
	if s.Len() != 2 {
		t.Fatalf("Len = %d, want 2", s.Len())
	}
	if got := s.MeanTotal(); got != 12 {
		t.Errorf("MeanTotal = %v, want 12", got)
	}
	if got := s.ByID(2); got != b {
		t.Errorf("ByID(2) = %v", got)
	}
	if got := s.Remove(1); got != a {
		t.Errorf("Remove(1) = %v", got)
	}
	if s.Len() != 1 || s.MeanTotal() != 7 {
		t.Errorf("after remove: len %d total %v", s.Len(), s.MeanTotal())
	}
	if got := s.Remove(99); got != nil {
		t.Errorf("Remove(missing) = %v, want nil", got)
	}
	if got := s.ByID(99); got != nil {
		t.Errorf("ByID(missing) = %v, want nil", got)
	}
}

func TestSetDemandSumsApps(t *testing.T) {
	src := dist.NewSource(1)
	s := &Set{}
	s.Add(&App{ID: 1, Mean: 10})
	s.Add(&App{ID: 2, Mean: 20})
	if got := s.Demand(src); got != 30 {
		t.Errorf("noiseless set demand = %v, want 30", got)
	}
}

func TestSortedByMeanDesc(t *testing.T) {
	s := &Set{}
	s.Add(&App{ID: 1, Mean: 5})
	s.Add(&App{ID: 2, Mean: 9})
	s.Add(&App{ID: 3, Mean: 5})
	got := s.SortedByMeanDesc()
	if got[0].ID != 2 {
		t.Errorf("largest first: got ID %d", got[0].ID)
	}
	// Equal means tie-break by ID.
	if got[1].ID != 1 || got[2].ID != 3 {
		t.Errorf("tie-break wrong: %d, %d", got[1].ID, got[2].ID)
	}
	// Original set order untouched.
	if s.Apps[0].ID != 1 {
		t.Error("SortedByMeanDesc mutated the set")
	}
}

func TestPlaceRandomMix(t *testing.T) {
	src := dist.NewSource(5)
	p, err := PlaceRandomMix(18, 4, SimClasses(), 10, 20, src)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Sets) != 18 {
		t.Fatalf("placed %d servers, want 18", len(p.Sets))
	}
	ids := map[int]bool{}
	for _, set := range p.Sets {
		if set.Len() != 4 {
			t.Fatalf("server has %d apps, want 4", set.Len())
		}
		for _, a := range set.Apps {
			if ids[a.ID] {
				t.Fatalf("duplicate app ID %d", a.ID)
			}
			ids[a.ID] = true
			if a.Mean != a.Class.Weight*10 {
				t.Errorf("app mean %v, want weight %v * 10", a.Mean, a.Class.Weight)
			}
		}
	}
	if len(ids) != 72 {
		t.Errorf("minted %d app IDs, want 72", len(ids))
	}
}

func TestPlaceRandomMixUsesAllClasses(t *testing.T) {
	src := dist.NewSource(6)
	p, err := PlaceRandomMix(50, 4, SimClasses(), 1, 0, src)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, set := range p.Sets {
		for _, a := range set.Apps {
			seen[a.Class.Name] = true
		}
	}
	if len(seen) != 4 {
		t.Errorf("only %d classes appeared across 200 draws", len(seen))
	}
}

func TestPlaceRandomMixRejectsBadArgs(t *testing.T) {
	src := dist.NewSource(1)
	if _, err := PlaceRandomMix(0, 4, SimClasses(), 1, 0, src); err == nil {
		t.Error("zero servers accepted")
	}
	if _, err := PlaceRandomMix(1, 0, SimClasses(), 1, 0, src); err == nil {
		t.Error("zero apps accepted")
	}
	if _, err := PlaceRandomMix(1, 1, nil, 1, 0, src); err == nil {
		t.Error("no classes accepted")
	}
}

func TestMigrationBytes(t *testing.T) {
	a := &App{Class: Class{Weight: 5}}
	if got := a.MigrationBytes(); got != 5 {
		t.Errorf("MigrationBytes = %v, want 5", got)
	}
}

func TestSmootherFirstObservation(t *testing.T) {
	s, err := NewSmoother(0.3)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Update(100); got != 100 {
		t.Errorf("first Update = %v, want 100 (no zero bias)", got)
	}
}

func TestSmootherEquation(t *testing.T) {
	// Eq. 4: CP = α·new + (1−α)·old.
	s, err := NewSmoother(0.25)
	if err != nil {
		t.Fatal(err)
	}
	s.Update(100)
	got := s.Update(200)
	want := 0.25*200 + 0.75*100
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("Update = %v, want %v", got, want)
	}
	if s.value != got {
		t.Errorf("value = %v, want %v", s.value, got)
	}
}

func TestSmootherAlphaOnePassesThrough(t *testing.T) {
	s, err := NewSmoother(1)
	if err != nil {
		t.Fatal(err)
	}
	s.Update(5)
	if got := s.Update(17); got != 17 {
		t.Errorf("alpha=1 Update = %v, want 17", got)
	}
}

func TestSmootherRejectsBadAlpha(t *testing.T) {
	for _, alpha := range []float64{0, -0.5, 1.5} {
		if _, err := NewSmoother(alpha); err == nil {
			t.Errorf("alpha %v accepted", alpha)
		}
	}
}

func TestSmootherReset(t *testing.T) {
	s, _ := NewSmoother(0.5)
	s.Update(10)
	s.Reset()
	if s.value != 0 {
		t.Errorf("value after Reset = %v", s.value)
	}
	if got := s.Update(40); got != 40 {
		t.Errorf("first Update after Reset = %v, want 40", got)
	}
}

// Property: smoothing converges toward a constant input and the smoothed
// value always lies between min and max of observations.
func TestSmootherBoundsQuick(t *testing.T) {
	f := func(seed uint64, rawAlpha uint8) bool {
		alpha := (float64(rawAlpha%99) + 1) / 100
		s, err := NewSmoother(alpha)
		if err != nil {
			return false
		}
		src := dist.NewSource(seed)
		lo, hi := math.Inf(1), math.Inf(-1)
		for i := 0; i < 50; i++ {
			x := src.Uniform(0, 100)
			lo = math.Min(lo, x)
			hi = math.Max(hi, x)
			v := s.Update(x)
			if v < lo-1e-9 || v > hi+1e-9 {
				return false
			}
		}
		// Feed a constant; the smoother must converge to it.
		for i := 0; i < 2000; i++ {
			s.Update(42)
		}
		return math.Abs(s.value-42) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func BenchmarkSetDemand(b *testing.B) {
	src := dist.NewSource(1)
	s := &Set{}
	for i := 0; i < 8; i++ {
		s.Add(&App{ID: i, Mean: 40, NoiseLambda: 20})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Demand(src)
	}
}

func TestSmootherBias(t *testing.T) {
	s, _ := NewSmoother(0.5)
	s.Update(100)
	s.Bias(-30)
	if got := s.value; got != 70 {
		t.Errorf("Value after Bias(-30) = %v, want 70", got)
	}
	// Bias never drives the state negative.
	s.Bias(-1000)
	if got := s.value; got != 0 {
		t.Errorf("Value after huge negative Bias = %v, want 0", got)
	}
	// Bias on a fresh smoother initializes it (the next Update smooths
	// rather than overwriting).
	f, _ := NewSmoother(0.5)
	f.Bias(40)
	if got := f.Update(0); got != 20 {
		t.Errorf("Update after initializing Bias = %v, want 20", got)
	}
}

func TestAppLastDemandRecorded(t *testing.T) {
	src := dist.NewSource(3)
	a := &App{Mean: 25, NoiseLambda: 0}
	a.Demand(src)
	if a.LastDemand != 25 {
		t.Errorf("LastDemand = %v, want 25", a.LastDemand)
	}
	noisy := &App{Mean: 25, NoiseLambda: 30}
	if got := noisy.Demand(src); noisy.LastDemand != got {
		t.Errorf("LastDemand %v != returned demand %v", noisy.LastDemand, got)
	}
}
