// Package workload models the demand side of Willow: applications hosted
// in virtual machines whose power demand is driven by user queries.
//
// The paper's simulation places "a random mix of 4 different application
// types that have a relative average power requirement of 1, 2, 5 and 9"
// on each server, draws per-node power demand from a Poisson
// distribution, and treats the application (VM) as the indivisible unit
// of migration (Section IV-E: demand is never split between nodes). The
// testbed instead runs three CPU-bound applications A1/A2/A3 that add 8,
// 10 and 15 W respectively (Table II).
//
// Demand trends are extracted with the exponential smoothing of Eq. 4:
//
//	CP ← α·CP_new + (1−α)·CP_old
package workload

import (
	"fmt"
	"sort"

	"willow/internal/dist"
)

// Class describes an application type by its relative average power
// weight (simulation) or absolute wattage (testbed).
type Class struct {
	Name   string
	Weight float64 // relative power requirement
}

// SimClasses returns the paper's four simulation application types with
// relative power requirements 1, 2, 5 and 9 (Section V-B1).
func SimClasses() []Class {
	return []Class{
		{Name: "tiny", Weight: 1},
		{Name: "small", Weight: 2},
		{Name: "medium", Weight: 5},
		{Name: "large", Weight: 9},
	}
}

// App is one application instance hosted in a VM — Willow's unit of
// migration.
type App struct {
	ID    int
	Class Class
	// Mean is the application's average power demand in watts at the
	// current workload intensity.
	Mean float64
	// NoiseLambda controls demand fluctuation: each tick's demand is
	// Mean scaled by Poisson(NoiseLambda)/NoiseLambda, so larger values
	// mean steadier demand (CV = 1/sqrt(NoiseLambda)). Zero disables
	// fluctuation.
	NoiseLambda float64
	// Priority orders QoS classes: 0 is the most critical, larger values
	// shed first when a budget cannot serve everything. The paper leaves
	// multiple QoS classes as future work (Section VI) but describes the
	// mechanism: "some of the applications ... are either shut down
	// completely or run in a degraded operational mode to stay within
	// the power budget" (Section IV-E).
	Priority int
	// LastDemand is the demand drawn in the most recent Demand call —
	// what priority-ordered shedding attributes per application.
	LastDemand float64
}

// Demand draws this tick's instantaneous power demand and records it in
// LastDemand.
func (a *App) Demand(src *dist.Source) float64 {
	switch {
	case a.Mean <= 0:
		a.LastDemand = 0
	case a.NoiseLambda <= 0:
		a.LastDemand = a.Mean
	default:
		a.LastDemand = src.PoissonScaled(a.Mean, a.NoiseLambda)
	}
	return a.LastDemand
}

// MigrationBytes approximates the VM memory footprint transferred when
// the app migrates; proportional to its power weight (bigger apps are
// bigger VMs). Used by the network model to account migration traffic.
func (a *App) MigrationBytes() float64 { return a.Class.Weight }

// Set is the collection of apps on one server.
type Set struct {
	Apps []*App
}

// MeanTotal returns the summed mean demand — the paper's "average power
// demand in a server is the sum of all the average power requirements of
// the applications that are hosted in it".
func (s *Set) MeanTotal() float64 {
	var sum float64
	for _, a := range s.Apps {
		sum += a.Mean
	}
	return sum
}

// Demand draws the server's instantaneous demand this tick.
func (s *Set) Demand(src *dist.Source) float64 {
	var sum float64
	for _, a := range s.Apps {
		sum += a.Demand(src)
	}
	return sum
}

// Add appends an app to the set.
func (s *Set) Add(a *App) { s.Apps = append(s.Apps, a) }

// Remove deletes the app with the given ID and returns it, or nil if the
// set does not contain it.
func (s *Set) Remove(id int) *App {
	for i, a := range s.Apps {
		if a.ID == id {
			s.Apps = append(s.Apps[:i], s.Apps[i+1:]...)
			return a
		}
	}
	return nil
}

// ByID returns the app with the given ID, or nil.
func (s *Set) ByID(id int) *App {
	for _, a := range s.Apps {
		if a.ID == id {
			return a
		}
	}
	return nil
}

// Len returns the number of apps.
func (s *Set) Len() int { return len(s.Apps) }

// SortedByMeanDesc returns the apps ordered by decreasing mean demand,
// ties broken by ID for determinism. Migration planning peels demands in
// this order.
func (s *Set) SortedByMeanDesc() []*App {
	out := append([]*App(nil), s.Apps...)
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Mean != out[j].Mean {
			return out[i].Mean > out[j].Mean
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// Placement holds the initial assignment of apps to servers.
type Placement struct {
	Sets []*Set // indexed by server
}

// PlaceRandomMix builds the paper's simulation workload: each of
// numServers servers receives appsPerServer applications whose classes
// are drawn uniformly from classes. Mean demands are Weight·unitWatts.
func PlaceRandomMix(numServers, appsPerServer int, classes []Class, unitWatts, noiseLambda float64, src *dist.Source) (*Placement, error) {
	if numServers <= 0 || appsPerServer <= 0 {
		return nil, fmt.Errorf("workload: need positive server (%d) and app (%d) counts", numServers, appsPerServer)
	}
	if len(classes) == 0 {
		return nil, fmt.Errorf("workload: no application classes")
	}
	p := &Placement{}
	for s := 0; s < numServers; s++ {
		set := &Set{}
		for a := 0; a < appsPerServer; a++ {
			cls := classes[src.Intn(len(classes))]
			set.Add(&App{
				ID:          s*appsPerServer + a,
				Class:       cls,
				Mean:        cls.Weight * unitWatts,
				NoiseLambda: noiseLambda,
			})
		}
		p.Sets = append(p.Sets, set)
	}
	return p, nil
}

// Smoother implements the exponential smoothing of the paper's Eq. 4:
// CP = α·CP_new + (1−α)·CP_old. The first observation initializes the
// state directly so early readings are not biased toward zero.
type Smoother struct {
	Alpha float64
	value float64
	init  bool
}

// NewSmoother returns a Smoother with parameter alpha, which must lie in
// (0, 1].
func NewSmoother(alpha float64) (*Smoother, error) {
	if alpha <= 0 || alpha > 1 {
		return nil, fmt.Errorf("workload: smoothing alpha %v outside (0, 1]", alpha)
	}
	return &Smoother{Alpha: alpha}, nil
}

// Update folds in a new observation and returns the smoothed value.
func (s *Smoother) Update(x float64) float64 {
	if !s.init {
		s.value = x
		s.init = true
		return x
	}
	s.value = s.Alpha*x + (1-s.Alpha)*s.value
	return s.value
}

// Initialized reports whether the smoother has absorbed at least one
// observation since construction or the last Reset. The controller's
// fixed-point fast path needs it: only an initialized smoother fed the
// same observation twice is guaranteed to return the same value again.
func (s *Smoother) Initialized() bool { return s.init }

// Bias shifts the smoothed state by delta without registering an
// observation. Willow applies it when demand migrates between nodes: the
// moved application's mean leaves one smoother and enters another
// immediately, rather than bleeding over several windows.
func (s *Smoother) Bias(delta float64) {
	if !s.init {
		s.init = true
	}
	s.value += delta
	if s.value < 0 {
		s.value = 0
	}
}

// Reset clears the smoother to its pre-first-observation state.
func (s *Smoother) Reset() { s.value = 0; s.init = false }
