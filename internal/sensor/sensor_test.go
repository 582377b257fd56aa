package sensor

import (
	"math"
	"strings"
	"testing"

	"willow/internal/dist"
)

func TestHealthySensorIsIdentity(t *testing.T) {
	s := New(dist.NewSource(1))
	for tick, truth := range []float64{25, 40.5, 69.999, -3} {
		if got := s.Read(truth, tick); got != truth {
			t.Fatalf("healthy Read(%v) = %v, want bit-identical truth", truth, got)
		}
	}
	// Healthy reads must not consume randomness: two sensors sharing a
	// forked stream stay in lockstep after interleaved healthy reads.
	src := dist.NewSource(7)
	a, b := New(src.Fork()), New(src.Fork())
	a.Read(30, 0)
	a.Set(Fault{Mode: ModeNoise, Magnitude: 1}, 1)
	b.Set(Fault{Mode: ModeNoise, Magnitude: 1}, 1)
	// identical streams were forked in the same order from equal states
	src2 := dist.NewSource(7)
	wantA := 30 + src2.Fork().Normal(0, 1)
	wantB := 30 + src2.Fork().Normal(0, 1)
	if got := a.Read(30, 1); got != wantA {
		t.Fatalf("noise draw perturbed by healthy reads: got %v want %v", got, wantA)
	}
	if got := b.Read(30, 1); got != wantB {
		t.Fatalf("noise draw mismatch: got %v want %v", got, wantB)
	}
}

func TestFaultModes(t *testing.T) {
	s := New(dist.NewSource(2))

	s.Set(Fault{Mode: ModeBias, Magnitude: -5}, 10)
	if got := s.Read(50, 10); got != 45 {
		t.Fatalf("bias read %v, want 45", got)
	}

	s.Set(Fault{Mode: ModeDrift, Magnitude: 0.5}, 20)
	if got := s.Read(50, 20); got != 50 {
		t.Fatalf("drift at onset read %v, want 50", got)
	}
	if got := s.Read(50, 30); got != 55 {
		t.Fatalf("drift after 10 ticks read %v, want 55", got)
	}

	s.Set(Fault{Mode: ModeStuck}, 40)
	if got := s.Read(61.25, 40); got != 61.25 {
		t.Fatalf("stuck freezes at first read: got %v", got)
	}
	if got := s.Read(80, 45); got != 61.25 {
		t.Fatalf("stuck read %v, want frozen 61.25", got)
	}

	s.Set(Fault{Mode: ModeDropout}, 50)
	if got := s.Read(70, 50); !math.IsNaN(got) {
		t.Fatalf("dropout read %v, want NaN", got)
	}

	s.Clear()
	if got := s.Read(33, 60); got != 33 {
		t.Fatalf("cleared sensor read %v, want 33", got)
	}

	s.Set(Fault{Mode: ModeNoise, Magnitude: 2}, 70)
	var dev float64
	for i := 0; i < 200; i++ {
		dev += math.Abs(s.Read(50, 70+i) - 50)
	}
	if dev == 0 {
		t.Fatal("noise fault produced exact readings")
	}
}

func TestModeString(t *testing.T) {
	want := []string{"none", "noise", "bias", "drift", "stuck", "dropout"}
	for i, w := range want {
		if got := Mode(i).String(); got != w {
			t.Fatalf("Mode(%d).String() = %q, want %q", i, got, w)
		}
	}
	if got := Mode(99).String(); !strings.Contains(got, "99") {
		t.Fatalf("invalid mode string %q", got)
	}
}
