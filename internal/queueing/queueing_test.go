package queueing

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

// ResponseTime is the tests' analytic oracle: the mean response time of
// an M/G/1-PS server at utilization rho with mean service time service,
// which TestResponseTimeMatchesDES checks against a simulated queue. It
// returns +Inf at or beyond saturation, and panics on a non-positive
// service time or a negative utilization.
func ResponseTime(rho, service float64) float64 {
	if service <= 0 {
		panic(fmt.Sprintf("queueing: non-positive service time %v", service))
	}
	if rho < 0 {
		panic(fmt.Sprintf("queueing: negative utilization %v", rho))
	}
	if rho >= 1 {
		return math.Inf(1)
	}
	return service / (1 - rho)
}

func TestResponseTime(t *testing.T) {
	if got := ResponseTime(0, 2); got != 2 {
		t.Errorf("T(0) = %v, want bare service time 2", got)
	}
	if got := ResponseTime(0.5, 2); got != 4 {
		t.Errorf("T(0.5) = %v, want 4", got)
	}
	if got := ResponseTime(1, 2); !math.IsInf(got, 1) {
		t.Errorf("T(1) = %v, want +Inf", got)
	}
	if got := ResponseTime(1.5, 2); !math.IsInf(got, 1) {
		t.Errorf("T(1.5) = %v, want +Inf", got)
	}
}

func TestResponseTimePanics(t *testing.T) {
	for _, c := range []struct{ rho, s float64 }{{0.5, 0}, {-0.1, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("ResponseTime(%v, %v) did not panic", c.rho, c.s)
				}
			}()
			ResponseTime(c.rho, c.s)
		}()
	}
}

func TestStretch(t *testing.T) {
	if got := Stretch(0); got != 1 {
		t.Errorf("Stretch(0) = %v", got)
	}
	if got := Stretch(0.9); math.Abs(got-10) > 1e-9 {
		t.Errorf("Stretch(0.9) = %v, want 10", got)
	}
	if got := Stretch(-0.5); got != 1 {
		t.Errorf("Stretch(-0.5) = %v, want clamp to 1", got)
	}
	if got := Stretch(1); !math.IsInf(got, 1) {
		t.Errorf("Stretch(1) = %v, want +Inf", got)
	}
}

func TestSLOMaxUtilization(t *testing.T) {
	slo := SLO{Service: 1, Target: 4}
	if got := slo.MaxUtilization(); math.Abs(got-0.75) > 1e-12 {
		t.Errorf("MaxUtilization = %v, want 0.75", got)
	}
	if !slo.Met(0.75) || slo.Met(0.76) {
		t.Error("Met boundary wrong")
	}
	// Impossible SLO: target below the bare service time.
	hopeless := SLO{Service: 2, Target: 1}
	if got := hopeless.MaxUtilization(); got != 0 {
		t.Errorf("impossible SLO max utilization = %v, want 0", got)
	}
	if got := (SLO{}).MaxUtilization(); got != 0 {
		t.Errorf("zero SLO max utilization = %v", got)
	}
}

func TestTrackerBasics(t *testing.T) {
	tr := NewTracker(SLO{Service: 1, Target: 4}) // SLO met up to 75 %
	tr.Add(tr.Sample(0.5, 100, 0))               // stretch 2, ok
	tr.Add(tr.Sample(0.9, 100, 0))               // stretch 10, miss
	tr.Add(tr.Sample(0.5, 0, 50))                // all shed
	wantStretch := (100*2.0 + 100*10.0) / 200
	if got := tr.MeanStretch(); math.Abs(got-wantStretch) > 1e-9 {
		t.Errorf("MeanStretch = %v, want %v", got, wantStretch)
	}
	// Misses: the 0.9-utilization 100 W plus the 50 W shed, of 250 total.
	if got := tr.SLOMissFraction(); math.Abs(got-150.0/250) > 1e-9 {
		t.Errorf("SLOMissFraction = %v, want 0.6", got)
	}
}

func TestTrackerSaturation(t *testing.T) {
	tr := NewTracker(SLO{Service: 1, Target: 10})
	tr.Add(tr.Sample(1.0, 80, 0)) // saturated: counted as miss, excluded from stretch
	if got := tr.MeanStretch(); got != 1 {
		t.Errorf("MeanStretch with only saturated obs = %v, want 1", got)
	}
	if got := tr.SLOMissFraction(); got != 1 {
		t.Errorf("SLOMissFraction = %v, want 1", got)
	}
}

func TestTrackerEmpty(t *testing.T) {
	tr := NewTracker(SLO{Service: 1, Target: 2})
	if tr.MeanStretch() != 1 || tr.SLOMissFraction() != 0 {
		t.Error("empty tracker stats wrong")
	}
}

// Property: SLOMissFraction stays in [0, 1] and MeanStretch >= 1 for any
// observation sequence.
func TestTrackerInvariantsQuick(t *testing.T) {
	f := func(obs []uint16) bool {
		tr := NewTracker(SLO{Service: 1, Target: 5})
		for _, o := range obs {
			rho := float64(o%120) / 100 // 0 .. 1.19
			served := float64((o >> 7) % 100)
			shed := float64((o >> 11) % 20)
			tr.Add(tr.Sample(rho, served, shed))
		}
		miss := tr.SLOMissFraction()
		return miss >= 0 && miss <= 1 && tr.MeanStretch() >= 1-1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkTrackerObserve(b *testing.B) {
	tr := NewTracker(SLO{Service: 1, Target: 4})
	for i := 0; i < b.N; i++ {
		tr.Add(tr.Sample(float64(i%95)/100, 100, 5))
	}
}
