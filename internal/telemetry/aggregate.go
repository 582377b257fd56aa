package telemetry

// Aggregator folds an event stream into run-level summary figures — the
// per-run report the CLIs print or save next to the raw stream: event
// counts by kind, migration volume, the thermal-throttle duty cycle and
// per-level budget utilization.

import (
	"fmt"
	"sort"
	"strings"

	"willow/internal/metrics"
)

// sortedKeys returns m's keys in ascending order, for deterministic
// row rendering.
func sortedKeys(m map[int]float64) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

// Aggregator is a Sink that accumulates summary statistics. The zero
// value is ready to use.
type Aggregator struct {
	// Servers, when positive, fixes the fleet size used for the
	// throttle duty-cycle denominator. When zero, the largest server
	// index observed in any event is used instead — adequate whenever
	// at least one event touched the highest-indexed server.
	Servers int

	counts         [numKinds + 1]int64
	migrationWatts float64
	migrationBytes float64
	localCount     int64
	serverFails    int64
	serverRepairs  int64
	pmuFails       int64
	pmuRepairs     int64
	leaseExpiries  int64
	orphanWatts    float64
	sensorInjects  int64
	sensorRejects  int64
	sensorGuard    int64
	sensorTrips    int64
	energyJ        float64
	workJ          float64
	heatJ          float64
	shedJ          float64
	rackEnergyJ    map[int]float64
	firstTick      int
	lastTick       int
	sawTick        bool
	maxServer      int
	budgetTP       []float64 // by level
	budgetCP       []float64 // by level
}

// Publish implements Sink.
func (a *Aggregator) Publish(e Event) {
	if int(e.Kind) >= 1 && int(e.Kind) <= numKinds {
		a.counts[e.Kind]++
	}
	if !a.sawTick || e.Tick < a.firstTick {
		a.firstTick = e.Tick
	}
	if !a.sawTick || e.Tick > a.lastTick {
		a.lastTick = e.Tick
	}
	a.sawTick = true
	for _, idx := range [...]int{e.Server, e.From, e.To} {
		if idx > a.maxServer {
			a.maxServer = idx
		}
	}
	switch e.Kind {
	case KindMigration:
		a.migrationWatts += e.Watts
		a.migrationBytes += e.Bytes
		if e.Local {
			a.localCount++
		}
	case KindBudgetChange:
		for len(a.budgetTP) <= e.Level {
			a.budgetTP = append(a.budgetTP, 0)
			a.budgetCP = append(a.budgetCP, 0)
		}
		a.budgetTP[e.Level] += e.Watts
		a.budgetCP[e.Level] += e.Demand
	case KindFailure:
		switch e.Cause {
		case "fail":
			a.serverFails++
		case "repair":
			a.serverRepairs++
		case "pmu-fail":
			a.pmuFails++
		case "pmu-repair":
			a.pmuRepairs++
		}
	case KindDegraded:
		switch e.Cause {
		case "enter":
			a.leaseExpiries++
		case "orphans":
			a.orphanWatts += e.Watts
		}
	case KindSensor:
		switch {
		case strings.HasPrefix(e.Cause, "inject"):
			a.sensorInjects++
		case e.Cause == "reject" || e.Cause == "dropout":
			a.sensorRejects++
		case e.Cause == "guard":
			a.sensorGuard++
		case e.Cause == "unhealthy":
			a.sensorTrips++
		}
	case KindEnergy:
		switch e.Cause {
		case "fleet":
			a.energyJ += e.Watts
			a.workJ += e.Demand
			a.heatJ += e.Prev
			a.shedJ += e.Bytes
		case "rack":
			if a.rackEnergyJ == nil {
				a.rackEnergyJ = make(map[int]float64)
			}
			a.rackEnergyJ[e.Node] += e.Watts
		}
	}
}

// Total returns the number of events observed across all kinds.
func (a *Aggregator) Total() int64 {
	var n int64
	for _, c := range a.counts {
		n += c
	}
	return n
}

// TickSpan returns the number of ticks covered by the stream (last −
// first + 1), 0 when no event was observed.
func (a *Aggregator) TickSpan() int {
	if !a.sawTick {
		return 0
	}
	return a.lastTick - a.firstTick + 1
}

// ThrottleDutyCycle returns the fraction of server-ticks on which the
// thermal limit clamped a server's budget, over the observed tick span
// and the fleet size (see Servers).
func (a *Aggregator) ThrottleDutyCycle() float64 {
	span, servers := a.TickSpan(), a.servers()
	if span == 0 || servers == 0 {
		return 0
	}
	return float64(a.counts[KindThermalThrottle]) / (float64(span) * float64(servers))
}

func (a *Aggregator) servers() int {
	if a.Servers > 0 {
		return a.Servers
	}
	if a.maxServer > 0 || a.Total() > 0 {
		return a.maxServer + 1
	}
	return 0
}

// OrphanWattTicks returns the demand stranded awaiting restart, summed
// over the per-tick "orphans" degradation records (watts × ticks).
func (a *Aggregator) OrphanWattTicks() float64 { return a.orphanWatts }

// WorkPerJoule returns useful work per joule consumed — the efficiency
// scoreboard's headline figure — and ok=false when nothing was consumed.
func (a *Aggregator) WorkPerJoule() (float64, bool) {
	if a.energyJ <= 0 {
		return 0, false
	}
	return a.workJ / a.energyJ, true
}

// BudgetUtilization returns demand-over-budget (ΣCP / ΣTP, watt-
// weighted across that level's budget events) for the given tree level,
// with ok=false when the level granted no budget.
func (a *Aggregator) BudgetUtilization(level int) (float64, bool) {
	if level < 0 || level >= len(a.budgetTP) || a.budgetTP[level] <= 0 {
		return 0, false
	}
	return a.budgetCP[level] / a.budgetTP[level], true
}

// Table renders the aggregate as metric/value rows — the per-run
// summary report.
func (a *Aggregator) Table(title string) *metrics.Table {
	tb := metrics.NewTable(title, "metric", "value")
	for _, k := range Kinds() {
		if k == KindEnergy && a.counts[k] == 0 {
			// Energy events are opt-in; skipping the zero row keeps
			// pre-energy summaries byte-identical.
			continue
		}
		tb.AddRow("events."+k.String(), fmt.Sprintf("%d", a.counts[k]))
	}
	tb.AddRow("ticks.span", fmt.Sprintf("%d", a.TickSpan()))
	tb.AddRow("migration.watts", fmt.Sprintf("%.6g", a.migrationWatts))
	tb.AddRow("migration.bytes", fmt.Sprintf("%.6g", a.migrationBytes))
	tb.AddRow("migration.local", fmt.Sprintf("%d", a.localCount))
	tb.AddRow("throttle.duty", fmt.Sprintf("%.6g", a.ThrottleDutyCycle()))
	if a.counts[KindFailure] > 0 || a.counts[KindDegraded] > 0 {
		// Resilience outcomes — only rendered for runs that actually saw
		// failures or degradation, so clean-run summaries stay compact.
		tb.AddRow("failures.server", fmt.Sprintf("%d", a.serverFails))
		tb.AddRow("failures.pmu", fmt.Sprintf("%d", a.pmuFails))
		tb.AddRow("repairs.server", fmt.Sprintf("%d", a.serverRepairs))
		tb.AddRow("repairs.pmu", fmt.Sprintf("%d", a.pmuRepairs))
		tb.AddRow("lease.expiries", fmt.Sprintf("%d", a.leaseExpiries))
		tb.AddRow("orphan.watt-ticks", fmt.Sprintf("%.6g", a.orphanWatts))
	}
	if a.counts[KindSensor] > 0 {
		// Sensor-health outcomes — rendered only for runs whose sensing
		// layer saw faults or rejections.
		tb.AddRow("sensor.faults", fmt.Sprintf("%d", a.sensorInjects))
		tb.AddRow("sensor.rejected", fmt.Sprintf("%d", a.sensorRejects))
		tb.AddRow("sensor.guard-ticks", fmt.Sprintf("%d", a.sensorGuard))
		tb.AddRow("sensor.unhealthy-trips", fmt.Sprintf("%d", a.sensorTrips))
	}
	if a.counts[KindEnergy] > 0 {
		// Efficiency scoreboard — rendered only for runs that emitted
		// energy accounting events (core.Config.EnergyEvents).
		tb.AddRow("energy.joules", fmt.Sprintf("%.6g", a.energyJ))
		tb.AddRow("energy.work-joules", fmt.Sprintf("%.6g", a.workJ))
		tb.AddRow("energy.heat-joules", fmt.Sprintf("%.6g", a.heatJ))
		tb.AddRow("energy.shed-joules", fmt.Sprintf("%.6g", a.shedJ))
		if wpj, ok := a.WorkPerJoule(); ok {
			tb.AddRow("energy.work-per-joule", fmt.Sprintf("%.6g", wpj))
		}
		for _, node := range sortedKeys(a.rackEnergyJ) {
			tb.AddRow(fmt.Sprintf("energy.rack.%d.joules", node), fmt.Sprintf("%.6g", a.rackEnergyJ[node]))
		}
	}
	for level := range a.budgetTP {
		util, ok := a.BudgetUtilization(level)
		if !ok {
			continue
		}
		tb.AddRow(fmt.Sprintf("budget.util.L%d", level), fmt.Sprintf("%.6g", util))
	}
	return tb
}
