package queueing

import (
	"math"
	"testing"

	"willow/internal/dist"
)

// TestResponseTimeMatchesDES cross-validates the analytic M/M/1 response
// time (which equals the M/G/1-PS formula S/(1−ρ) for exponential
// service) against a simulated single FIFO server fed by Poisson
// arrivals, stepped with Lindley's recursion: each request starts
// service at max(its arrival, the previous departure). Two independent
// implementations — closed form and simulation — must agree, which
// validates both.
func TestResponseTimeMatchesDES(t *testing.T) {
	const (
		serviceTicks = 300.0 // mean service time S
		requests     = 40000
	)
	for _, rho := range []float64{0.3, 0.6, 0.8} {
		rho := rho
		t.Run("", func(t *testing.T) {
			src := dist.NewSource(99)
			interarrival := serviceTicks / rho
			var arrival, departure, totalResponse float64
			for i := 0; i < requests; i++ {
				arrival += math.Round(src.Exponential(interarrival))
				service := math.Max(1, math.Round(src.Exponential(serviceTicks)))
				departure = math.Max(arrival, departure) + service
				totalResponse += departure - arrival
			}
			measured := totalResponse / requests
			analytic := ResponseTime(rho, serviceTicks)
			if rel := math.Abs(measured-analytic) / analytic; rel > 0.08 {
				t.Errorf("rho=%v: simulated mean response %v vs analytic %v (%.1f%% off)",
					rho, measured, analytic, rel*100)
			}
		})
	}
}
