// Package queueing supplies the response-time model that turns Willow's
// power numbers into user-visible QoS. The paper's workloads are
// "driven by user queries ... e.g. transactional workloads"
// (Section IV-E) and its goal is "to minimize QoS impact by dynamic
// energy allocation and task migrations" (Section VI) — but the paper
// never quantifies latency. This package does, with the classic
// processor-sharing queue: a server at utilization ρ serving requests of
// mean service time S has mean response time
//
//	T(ρ) = S / (1 − ρ)        (M/G/1-PS)
//
// which is exact for M/G/1 under processor sharing (a good model of a
// multi-threaded web server) and exposes the latency cliff near
// saturation that consolidation decisions trade against.
package queueing

import (
	"math"

	"willow/internal/metrics"
)

// Stretch returns the slowdown factor T/S at utilization rho — how many
// times longer a request takes than its bare service time.
func Stretch(rho float64) float64 {
	if rho >= 1 {
		return math.Inf(1)
	}
	if rho < 0 {
		rho = 0
	}
	return 1 / (1 - rho)
}

// SLO describes a latency service-level objective.
type SLO struct {
	// Service is the request's bare service time (any unit).
	Service float64
	// Target is the response-time bound in the same unit.
	Target float64
}

// MaxUtilization returns the highest utilization at which the SLO is
// still met: T(ρ) ≤ Target ⇔ ρ ≤ 1 − S/Target.
func (s SLO) MaxUtilization() float64 {
	if s.Service <= 0 || s.Target <= 0 {
		return 0
	}
	u := 1 - s.Service/s.Target
	if u < 0 {
		return 0
	}
	return u
}

// Met reports whether a server at utilization rho satisfies the SLO.
func (s SLO) Met(rho float64) bool {
	return rho <= s.MaxUtilization()+1e-12
}

// Tracker accumulates demand-weighted response-time statistics across a
// run: each observation is one server-tick with a served utilization and
// the watts of demand it carried (busy servers weigh more, and shed
// demand counts as an SLO miss — a dropped request has no response time
// at all).
//
// Offered demand splits into three disjoint buckets:
//
//	ok    — served on a server meeting the SLO,
//	miss  — served, but slower than the SLO allows (or saturated),
//	shed  — not served at all.
type Tracker struct {
	SLO SLO

	weightedStretch float64 // Σ served · stretch, non-saturated only
	stretchWeight   float64 // Σ served, non-saturated only
	okWeight        float64
	missWeight      float64
	shedWeight      float64
	hist            *metrics.Histogram // stretch distribution, demand-weighted
}

// NewTracker returns a tracker against the given SLO.
func NewTracker(slo SLO) *Tracker {
	// Stretch 1 .. ~1100 in 5%-relative-error buckets covers everything
	// up to the saturation clamp.
	h, err := metrics.NewHistogram(1, 1.25, 32)
	if err != nil {
		panic(err) // constants are compile-time correct
	}
	return &Tracker{SLO: slo, hist: h}
}

// Sample is one server-tick classified for a Tracker: the pure half of
// recording it, which Add folds into the running sums.
type Sample struct {
	served, shed float64
	// stretch is the clamped slowdown of non-saturated served demand,
	// bucket its histogram index, ok whether it met the SLO.
	stretch float64
	bucket  int
	ok      bool
	// saturated marks served demand at or beyond ρ = 1: an SLO miss
	// with no finite stretch.
	saturated bool
}

// Sample classifies one server-tick — servedWatts of demand ran at
// utilization rho, shedWatts were dropped — without recording it. It
// reads only the tracker's SLO and histogram layout, so concurrent
// callers may prepare samples that one goroutine then records, in a
// fixed order, with Add — the order the float sums depend on.
func (t *Tracker) Sample(rho, servedWatts, shedWatts float64) Sample {
	s := Sample{served: servedWatts, shed: shedWatts}
	if servedWatts <= 0 {
		return s
	}
	if rho >= 1 {
		s.saturated = true
		return s
	}
	// Clamp the stretch contribution at 99.9 % utilization: the PS
	// formula diverges as ρ → 1, but real requests time out long before —
	// such observations are already classified as SLO misses, so the
	// clamp only keeps the *mean* of the served traffic finite.
	stretchRho := rho
	if stretchRho > 0.999 {
		stretchRho = 0.999
	}
	s.stretch = Stretch(stretchRho)
	s.bucket = t.hist.Index(s.stretch)
	s.ok = t.SLO.Met(rho)
	return s
}

// Add records one prepared server-tick.
func (t *Tracker) Add(s Sample) {
	if s.shed > 0 {
		t.shedWeight += s.shed
	}
	if s.served <= 0 {
		return
	}
	if s.saturated {
		t.missWeight += s.served
		return
	}
	t.weightedStretch += s.served * s.stretch
	t.stretchWeight += s.served
	t.hist.AddAt(s.bucket, s.stretch, s.served)
	if s.ok {
		t.okWeight += s.served
	} else {
		t.missWeight += s.served
	}
}

// MeanStretch returns the demand-weighted mean slowdown of served,
// non-saturated requests (1 when nothing was served).
func (t *Tracker) MeanStretch() float64 {
	if t.stretchWeight <= 0 {
		return 1
	}
	return t.weightedStretch / t.stretchWeight
}

// SLOMissFraction returns the fraction of offered demand that was shed
// or served too slowly.
func (t *Tracker) SLOMissFraction() float64 {
	total := t.okWeight + t.missWeight + t.shedWeight
	if total <= 0 {
		return 0
	}
	return (t.missWeight + t.shedWeight) / total
}

// StretchQuantile returns an upper bound for the q-quantile of the
// demand-weighted stretch distribution of served requests (1 when
// nothing was served).
func (t *Tracker) StretchQuantile(q float64) float64 {
	if t.hist == nil || t.hist.Total() <= 0 {
		return 1
	}
	return t.hist.Quantile(q)
}
