// Package chaos is a deterministic fault-schedule generator: it expands
// a stochastic failure model — server and PMU crash/repair processes,
// correlated rack-level crash bursts, control-link loss windows,
// temperature-sensor fault windows — into an explicit, sorted event
// plan that a simulation harness schedules at fixed ticks (see
// cluster.ApplyChaos).
//
// Determinism contract: Expand is a pure function of (Schedule, seed).
// All randomness flows through forked internal/dist streams in a fixed
// order, so the same seed yields the identical Plan on every machine
// and under every worker count — chaos runs replicate byte-for-byte
// under exp.RunMany exactly like fault-free ones.
package chaos

import (
	"fmt"
	"math"
	"sort"

	"willow/internal/dist"
	"willow/internal/sensor"
)

// Schedule is the stochastic fault model. The topology fields (Ticks,
// Servers, PMUs, Racks) describe the simulated system; the rate fields
// parameterize independent renewal processes, every mean in ticks. A
// zero mean disables its process.
type Schedule struct {
	// Ticks is the simulation horizon; all generated event ticks fall in
	// [0, Ticks) and repair ticks in (fail, Ticks].
	Ticks int
	// Servers is the fleet size; generated server indices are in
	// [0, Servers).
	Servers int
	// PMUs lists the internal tree node IDs eligible to crash
	// (typically every non-root PMU; see cluster.ChaosTopology).
	PMUs []int
	// Racks groups server indices for correlated bursts (typically the
	// spans of the level-1 PMUs). Empty disables bursts regardless of
	// BurstEvery.
	Racks [][]int

	// ServerMTBF / ServerMTTR are the per-server mean ticks between
	// failures and mean repair time (exponential).
	ServerMTBF, ServerMTTR float64
	// PMUMTBF / PMUMTTR are the same for each listed PMU node.
	PMUMTBF, PMUMTTR float64
	// BurstEvery is the mean ticks between correlated rack bursts — one
	// randomly chosen rack's servers all crash together, sharing a
	// repair time of mean BurstMTTR.
	BurstEvery, BurstMTTR float64
	// LossEvery is the mean ticks between control-link loss windows of
	// mean length LossTicks, during which upward reports and downward
	// budget directives are dropped with the given probabilities
	// (each in [0, 1)).
	LossEvery, LossTicks   float64
	ReportLoss, BudgetLoss float64

	// SensorMTBF / SensorMTTR are the per-server mean ticks between
	// temperature-sensor fault windows and the mean window length
	// (exponential). Each window draws one fault mode (sensor.Mode);
	// the magnitude fields below double as mode enables — the draw
	// weights are 1 for each magnitude-bearing mode with a positive
	// magnitude, plus SensorStuck and SensorDropout for the
	// magnitude-free modes. All weights zero disables the process even
	// with SensorMTBF set.
	SensorMTBF, SensorMTTR float64
	// SensorNoise is the Gaussian read-noise stddev (°C); SensorBias the
	// constant offset magnitude (°C); SensorDrift the drift rate
	// magnitude (°C per tick). Bias and drift signs are drawn per
	// window.
	SensorNoise, SensorBias, SensorDrift float64
	// SensorStuck / SensorDropout are the relative draw weights of the
	// stuck-at and dropout (NaN) modes.
	SensorStuck, SensorDropout float64
}

// ServerFailure crashes one server at Tick; RepairTick > Tick schedules
// its repair (RepairTick == Ticks means "not within the horizon").
type ServerFailure struct {
	Server     int
	Tick       int
	RepairTick int
}

// PMUFailure crashes one internal (PMU) node at Tick, repairing it at
// RepairTick.
type PMUFailure struct {
	Node       int
	Tick       int
	RepairTick int
}

// LossWindow degrades every control link over [Start, End): reports are
// lost with probability ReportLoss, budget directives with BudgetLoss.
type LossWindow struct {
	Start, End             int
	ReportLoss, BudgetLoss float64
}

// SensorFault corrupts one server's temperature sensor over
// [Start, End): the sensor reports under the given fault mode, then
// heals at End (End == Ticks means "still lying when the run ends").
// Magnitude is signed for bias/drift, the noise stddev for noise, and
// unused for stuck/dropout.
type SensorFault struct {
	Server     int
	Start, End int
	Mode       sensor.Mode
	Magnitude  float64
}

// Plan is an expanded, explicit fault schedule, each list sorted by
// tick (ties by server/node index).
type Plan struct {
	ServerFailures []ServerFailure
	PMUFailures    []PMUFailure
	LossWindows    []LossWindow
	SensorFaults   []SensorFault
}

// Validate checks the schedule's fields for expandability.
func (s Schedule) Validate() error {
	switch {
	case s.Ticks <= 0:
		return fmt.Errorf("chaos: ticks %d must be positive", s.Ticks)
	case s.Servers < 0:
		return fmt.Errorf("chaos: negative server count %d", s.Servers)
	}
	for _, key := range sortedNames(specKeys) {
		if v := *specKeys[key](&s); !nonNegativeFinite(v) {
			return fmt.Errorf("chaos: %s %v must be non-negative and finite", key, v)
		}
	}
	switch {
	case s.ReportLoss >= 1:
		return fmt.Errorf("chaos: report loss %v outside [0, 1)", s.ReportLoss)
	case s.BudgetLoss >= 1:
		return fmt.Errorf("chaos: budget loss %v outside [0, 1)", s.BudgetLoss)
	}
	for _, id := range s.PMUs {
		if id < 0 {
			return fmt.Errorf("chaos: negative PMU node ID %d", id)
		}
	}
	for ri, rack := range s.Racks {
		for _, srv := range rack {
			if srv < 0 || srv >= s.Servers {
				return fmt.Errorf("chaos: rack %d server %d outside [0, %d)", ri, srv, s.Servers)
			}
		}
	}
	return nil
}

// Expand derives the concrete fault plan for one seed. The expansion
// forks one random stream per process class, in fixed order, so the
// classes perturb neither each other nor the simulation's own streams.
// The sensor stream forks last: schedules without sensor faults expand
// to plans byte-identical to those of earlier versions of this package.
func (s Schedule) Expand(seed uint64) (Plan, error) {
	if err := s.Validate(); err != nil {
		return Plan{}, err
	}
	src := dist.NewSource(seed)
	srvSrc, pmuSrc, burstSrc, lossSrc := src.Fork(), src.Fork(), src.Fork(), src.Fork()
	sensorSrc := src.Fork()

	var plan Plan
	if s.ServerMTBF > 0 && s.Servers > 0 {
		for idx := 0; idx < s.Servers; idx++ {
			for _, ev := range renewal(srvSrc, s.Ticks, s.ServerMTBF, s.ServerMTTR) {
				plan.ServerFailures = append(plan.ServerFailures,
					ServerFailure{Server: idx, Tick: ev[0], RepairTick: ev[1]})
			}
		}
	}
	if s.PMUMTBF > 0 {
		for _, id := range s.PMUs {
			for _, ev := range renewal(pmuSrc, s.Ticks, s.PMUMTBF, s.PMUMTTR) {
				plan.PMUFailures = append(plan.PMUFailures,
					PMUFailure{Node: id, Tick: ev[0], RepairTick: ev[1]})
			}
		}
	}
	if s.BurstEvery > 0 && len(s.Racks) > 0 {
		t := 0
		for {
			if t = after(t, burstSrc.Exponential(s.BurstEvery), s.Ticks); t >= s.Ticks {
				break
			}
			rack := s.Racks[burstSrc.Intn(len(s.Racks))]
			repair := after(t, expo(burstSrc, s.BurstMTTR), s.Ticks)
			for _, srv := range rack {
				plan.ServerFailures = append(plan.ServerFailures,
					ServerFailure{Server: srv, Tick: t, RepairTick: repair})
			}
		}
	}
	if s.LossEvery > 0 && (s.ReportLoss > 0 || s.BudgetLoss > 0) {
		t := 0
		for {
			if t = after(t, lossSrc.Exponential(s.LossEvery), s.Ticks); t >= s.Ticks {
				break
			}
			end := after(t, expo(lossSrc, s.LossTicks), s.Ticks)
			plan.LossWindows = append(plan.LossWindows, LossWindow{
				Start: t, End: end,
				ReportLoss: s.ReportLoss, BudgetLoss: s.BudgetLoss,
			})
			t = end // windows never overlap: the next one starts after this
		}
	}
	if modes, weights := s.sensorModes(); s.SensorMTBF > 0 && len(modes) > 0 {
		for idx := 0; idx < s.Servers; idx++ {
			for _, ev := range renewal(sensorSrc, s.Ticks, s.SensorMTBF, s.SensorMTTR) {
				f := SensorFault{Server: idx, Start: ev[0], End: ev[1]}
				f.Mode = pickMode(sensorSrc, modes, weights)
				switch f.Mode {
				case sensor.ModeNoise:
					f.Magnitude = s.SensorNoise
				case sensor.ModeBias:
					f.Magnitude = signed(sensorSrc, s.SensorBias)
				case sensor.ModeDrift:
					f.Magnitude = signed(sensorSrc, s.SensorDrift)
				}
				plan.SensorFaults = append(plan.SensorFaults, f)
			}
		}
	}

	sort.SliceStable(plan.ServerFailures, func(i, j int) bool {
		a, b := plan.ServerFailures[i], plan.ServerFailures[j]
		if a.Tick != b.Tick {
			return a.Tick < b.Tick
		}
		return a.Server < b.Server
	})
	sort.SliceStable(plan.PMUFailures, func(i, j int) bool {
		a, b := plan.PMUFailures[i], plan.PMUFailures[j]
		if a.Tick != b.Tick {
			return a.Tick < b.Tick
		}
		return a.Node < b.Node
	})
	sort.SliceStable(plan.LossWindows, func(i, j int) bool {
		return plan.LossWindows[i].Start < plan.LossWindows[j].Start
	})
	sort.SliceStable(plan.SensorFaults, func(i, j int) bool {
		a, b := plan.SensorFaults[i], plan.SensorFaults[j]
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		return a.Server < b.Server
	})
	return plan, nil
}

// sensorModes returns the enabled sensor fault modes and their draw
// weights, in fixed mode order.
func (s Schedule) sensorModes() (modes []sensor.Mode, weights []float64) {
	add := func(m sensor.Mode, w float64) {
		if w > 0 {
			modes = append(modes, m)
			weights = append(weights, w)
		}
	}
	add(sensor.ModeNoise, boolWeight(s.SensorNoise))
	add(sensor.ModeBias, boolWeight(s.SensorBias))
	add(sensor.ModeDrift, boolWeight(s.SensorDrift))
	add(sensor.ModeStuck, s.SensorStuck)
	add(sensor.ModeDropout, s.SensorDropout)
	return modes, weights
}

// boolWeight turns a magnitude into an enable weight: any positive
// magnitude enters the mode draw with weight 1.
func boolWeight(mag float64) float64 {
	if mag > 0 {
		return 1
	}
	return 0
}

// pickMode draws one mode proportionally to the weights.
func pickMode(src *dist.Source, modes []sensor.Mode, weights []float64) sensor.Mode {
	var total float64
	for _, w := range weights {
		total += w
	}
	r := src.Float64() * total
	for i, w := range weights {
		r -= w
		if r < 0 {
			return modes[i]
		}
	}
	return modes[len(modes)-1]
}

// signed flips the magnitude's sign with probability 1/2.
func signed(src *dist.Source, mag float64) float64 {
	if src.Float64() < 0.5 {
		return -mag
	}
	return mag
}

// nonNegativeFinite reports whether v is a finite float of at least
// zero; NaN, which fails every comparison, fails it.
func nonNegativeFinite(v float64) bool {
	return v >= 0 && v <= math.MaxFloat64
}

// renewal generates the alternating up/down process of one component:
// pairs of (fail tick, repair tick) with exponential up times of mean
// mtbf and down times of mean mttr, clipped to the horizon.
func renewal(src *dist.Source, ticks int, mtbf, mttr float64) [][2]int {
	var events [][2]int
	t := 0
	for {
		if t = after(t, expo(src, mtbf), ticks); t >= ticks {
			return events
		}
		repair := after(t, expo(src, mttr), ticks)
		events = append(events, [2]int{t, repair})
		t = repair
	}
}

// expo draws an exponential tick count; a non-positive mean yields 0
// (after's one-tick floor then applies).
func expo(src *dist.Source, mean float64) float64 {
	if mean <= 0 {
		return 0
	}
	return src.Exponential(mean)
}

// after returns tick t advanced by a draw of d ticks, rounded down and
// at least one (renewal processes must advance or they would loop
// forever), capped at the horizon: an event or repair capped to ticks
// never fires, modeling "still down when the run ends". The cap is
// taken as a float before the conversion, so a draw past the int range
// ends its process rather than wrapping.
func after(t int, d float64, ticks int) int {
	if d >= float64(ticks-t) {
		return ticks
	}
	return t + max(int(d), 1)
}
