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

func TestParseSpecPresetsAndOverrides(t *testing.T) {
	s, err := ParseSpec("heavy")
	if err != nil {
		t.Fatal(err)
	}
	if s != Presets["heavy"] {
		t.Fatalf("preset heavy = %+v, want %+v", s, Presets["heavy"])
	}
	s, err = ParseSpec("medium,noise=3, mttr=99 ")
	if err != nil {
		t.Fatal(err)
	}
	want := Presets["medium"]
	want.Noise = 3
	want.MTTR = 99
	if s != want {
		t.Fatalf("override spec = %+v, want %+v", s, want)
	}
}

func TestParseSpecRejects(t *testing.T) {
	for _, bad := range []string{
		"bogus",          // unknown preset
		"noise=1,light",  // preset not first
		"noise=x",        // unparsable value
		"noise=-1",       // negative
		"noise=NaN",      // non-finite
		"noise=+Inf",     // non-finite
		"frobnicate=1",   // unknown key
		"mtbf=1e999",     // overflows to +Inf
		"light,noise=-2", // negative override
	} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q) accepted, want error", bad)
		}
	}
}

func TestSpecStringRoundTrip(t *testing.T) {
	for name, p := range Presets {
		got, err := ParseSpec(p.String())
		if err != nil {
			t.Fatalf("preset %s: %v", name, err)
		}
		if got != p {
			t.Fatalf("preset %s round-trip = %+v, want %+v", name, got, p)
		}
	}
	if (Spec{}).String() != "" {
		t.Fatalf("zero spec renders %q, want empty", (Spec{}).String())
	}
}

// FuzzSensorSpec asserts the parser contract over arbitrary inputs: it
// never panics, and any spec it accepts canonicalizes to a string that
// re-parses to the identical Spec (round-trip stability).
func FuzzSensorSpec(f *testing.F) {
	f.Add("heavy")
	f.Add("light,noise=2.5")
	f.Add("mtbf=120,mttr=80,bias=6,stuck=1,dropout=2")
	f.Add(" , ,noise=0")
	f.Add("noise==1")
	f.Add("=,=")
	f.Fuzz(func(t *testing.T, spec string) {
		s, err := ParseSpec(spec)
		if err != nil {
			return
		}
		again, err := ParseSpec(s.String())
		if err != nil {
			t.Fatalf("canonical form %q of accepted spec %q rejected: %v", s.String(), spec, err)
		}
		if again != s {
			t.Fatalf("round trip of %q: %+v != %+v", spec, again, s)
		}
	})
}
