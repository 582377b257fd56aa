package core

// Energy accounting: converting each tick's consumed and dropped watts
// into joules via Config.TickSeconds, and splitting consumption into
// useful work (dynamic power serving demand above the static floor) and
// heat dissipated to the environment (the RC model's energy balance in
// closed form: whatever the server drew and did not store as a
// temperature rise left through the c2 path).
//
// Determinism contract: each server's figures are booked as soon as it
// settles (accountServer, in consumeAndHeat's sharded settle), touching
// only that server's slots; the fleet-wide sums then fold sequentially
// in server order after consumeAndHeat, reading only per-server slots,
// and allocate nothing — so accumulated figures are
// byte-identical across worker counts, Config.Shards values, and
// snapshot/restore (which replays the journal through the same pass).
// KindEnergy telemetry is opt-in (Config.EnergyEvents) so pre-energy
// event streams keep their bytes.

import (
	"willow/internal/telemetry"
	"willow/internal/topo"
)

// EnergyTotals is one accounting scope's cumulative energy figures, in
// joules.
type EnergyTotals struct {
	// Joules is the total energy consumed (static + dynamic + migration
	// cost, everything the server actually drew).
	Joules float64
	// WorkJoules is the useful-work share: dynamic power serving demand
	// above the static floor, integrated over awake ticks.
	WorkJoules float64
	// ShedJoules is demand the controller refused (dropped watt-ticks ×
	// tick duration) — energy the workload asked for and never got.
	ShedJoules float64
	// HeatJoules is the energy dissipated to the environment per the RC
	// thermal model's balance: consumed minus the change in stored heat.
	HeatJoules float64
}

// WorkPerJoule returns WorkJoules/Joules, 0 when nothing was consumed.
func (t EnergyTotals) WorkPerJoule() float64 {
	if t.Joules <= 0 {
		return 0
	}
	return t.WorkJoules / t.Joules
}

func (t *EnergyTotals) add(o EnergyTotals) {
	t.Joules += o.Joules
	t.WorkJoules += o.WorkJoules
	t.ShedJoules += o.ShedJoules
	t.HeatJoules += o.HeatJoules
}

// Sub returns the element-wise difference t − o: the energy accrued
// between two cumulative readings (sliding-window efficiency figures).
func (t EnergyTotals) Sub(o EnergyTotals) EnergyTotals {
	return EnergyTotals{
		Joules:     t.Joules - o.Joules,
		WorkJoules: t.WorkJoules - o.WorkJoules,
		ShedJoules: t.ShedJoules - o.ShedJoules,
		HeatJoules: t.HeatJoules - o.HeatJoules,
	}
}

// RackEnergy is one rack-level PMU subtree's cumulative energy figures.
type RackEnergy struct {
	// Node is the rack PMU's tree node ID; Servers is its contiguous
	// [lo, hi) server-index span.
	Node   int
	Lo, Hi int
	Totals EnergyTotals
}

// ClassEnergy is one application class's cumulative served energy
// (dynamic watt-ticks served to that class × tick duration).
type ClassEnergy struct {
	Class        string
	ServedJoules float64
}

// energyAcc holds the controller's energy accounting state. Every slice
// is preallocated at construction; the per-tick pass allocates nothing.
type energyAcc struct {
	// Per-server cumulative joules, indexed by server index.
	joules, workJ, shedJ, heatJ []float64
	// prevT is each server's temperature at the previous accounting
	// pass, for the stored-heat delta.
	prevT []float64
	// work and heat are each server's work and heat joules of the tick
	// accountServer booked last, for accountEnergy's fleet fold.
	work, heat []float64
	// secs is Config.TickSeconds; one thermal-model time unit spans
	// tuSecs = TickSeconds/ThermalDt wall seconds, converting the
	// stored-heat delta ΔT/c1 (watt · thermal units) into joules.
	// Nothing writes either setting after New.
	secs, tuSecs float64
	// fleet is the running fleet-wide sum (so reads are O(1)).
	fleet EnergyTotals

	// Per-app-class served watt-ticks: classOf maps app ID → class
	// index (−1 unknown), classNames the class labels in first-seen
	// (server, app) order, classServed the accumulators.
	classOf     []int32
	classNames  []string
	classServed []float64

	// Window-emission bookkeeping (EnergyEvents only): cumulative
	// totals at the last emission, per rack (racks order) and fleet.
	racks     []*topo.Node
	rackLo    []int
	rackHi    []int
	rackLast  []EnergyTotals
	fleetLast EnergyTotals
	lastEmit  int // tick after the last emitted window
}

// newEnergyAcc sizes the accumulator for the controller's fleet.
func newEnergyAcc(c *Controller) *energyAcc {
	n := len(c.Servers)
	f := make([]float64, 7*n)
	e := &energyAcc{
		joules: f[0*n : 1*n],
		workJ:  f[1*n : 2*n],
		shedJ:  f[2*n : 3*n],
		heatJ:  f[3*n : 4*n],
		prevT:  f[4*n : 5*n],
		work:   f[5*n : 6*n],
		heat:   f[6*n : 7*n],
		secs:   c.Cfg.TickSeconds,
		tuSecs: c.Cfg.TickSeconds / c.Cfg.ThermalDt,
	}
	for i, s := range c.Servers {
		e.prevT[i] = s.Thermal.T
	}

	// App classes, in first-seen order over (server, app) — a
	// deterministic function of the construction specs.
	maxID := -1
	for _, s := range c.Servers {
		for _, a := range s.Apps.Apps {
			if a.ID > maxID {
				maxID = a.ID
			}
		}
	}
	e.classOf = make([]int32, maxID+1)
	for i := range e.classOf {
		e.classOf[i] = -1
	}
	index := map[string]int{}
	for _, s := range c.Servers {
		for _, a := range s.Apps.Apps {
			name := a.Class.Name
			if name == "" {
				name = "unclassed"
			}
			ci, ok := index[name]
			if !ok {
				ci = len(e.classNames)
				index[name] = ci
				e.classNames = append(e.classNames, name)
				e.classServed = append(e.classServed, 0)
			}
			e.classOf[a.ID] = int32(ci)
		}
	}

	// Rack spans: each level-1 PMU covers a contiguous server range
	// (the same invariant planShards relies on).
	if len(c.levels) > 1 {
		for _, n := range c.levels[1] {
			lo, hi := len(c.Servers), 0
			for _, ch := range n.Children {
				if ch.IsLeaf() {
					if ch.ServerIndex < lo {
						lo = ch.ServerIndex
					}
					if ch.ServerIndex+1 > hi {
						hi = ch.ServerIndex + 1
					}
				}
			}
			if hi <= lo {
				continue
			}
			e.racks = append(e.racks, n)
			e.rackLo = append(e.rackLo, lo)
			e.rackHi = append(e.rackHi, hi)
			e.rackLast = append(e.rackLast, EnergyTotals{})
		}
	}
	return e
}

// accountServer books the energy of the tick s just settled: it adds to
// the server's cumulative joules and leaves the tick's work and heat
// joules in its slots for accountEnergy. It touches only s's slots, so
// the consume phase's sharded settle calls it for every server.
func (c *Controller) accountServer(s *Server) {
	e, h, i := c.energy, c.hot, s.idx
	secs := e.secs
	p := h.consumed[i]
	j := p * secs
	e.joules[i] += j
	var work float64
	if !h.asleep[i] && p > s.Power.Static {
		work = (p - s.Power.Static) * secs
	}
	e.workJ[i] += work
	e.shedJ[i] += float64(h.dropped[i] * secs)
	// RC energy balance: heat dissipated = consumed − stored-heat
	// change. The thermal capacitance is 1/c1 (dT/dt = c1·P − …), so a
	// ΔT rise stores ΔT/c1 watt·thermal-units. Negative ΔT (cooling)
	// dissipates more than the tick consumed — correct for sleeping
	// servers coasting down toward ambient.
	dT := s.Thermal.T - e.prevT[i]
	heat := j - dT/s.Thermal.Model.C1*e.tuSecs
	e.prevT[i] = s.Thermal.T
	e.heatJ[i] += heat
	e.work[i], e.heat[i] = work, heat
}

// accountEnergy is the per-tick fleet fold, run at the end of every
// Step once every server's accountServer has run: sequential in server
// order over per-server slots, allocation-free. Each product is
// converted explicitly, rounding the term as accountServer rounds it,
// so no compiler fuses it into the sum.
func (c *Controller) accountEnergy(t int) {
	e, h := c.energy, c.hot
	secs := e.secs
	var fleet EnergyTotals
	for i, work := range e.work {
		fleet.Joules += float64(h.consumed[i] * secs)
		fleet.WorkJoules += work
		fleet.ShedJoules += float64(h.dropped[i] * secs)
		fleet.HeatJoules += e.heat[i]
	}
	e.fleet.add(fleet)

	if c.Cfg.EnergyEvents && (t+1)%c.Cfg.Eta1 == 0 {
		c.closeEnergyWindow(t)
	}
}

// closeEnergyWindow ends the supply window that ended at tick t: it
// advances the window bookkeeping and, when a sink listens, emits one
// KindEnergy record per rack plus a fleet rollup covering the window.
// The windows advance whether or not a sink is attached, so a sink
// attached mid-run — a restored daemon's, after its silent replay —
// sees the same windows an always-attached one does.
func (c *Controller) closeEnergyWindow(t int) {
	e := c.energy
	ticks := t + 1 - e.lastEmit
	for r, n := range e.racks {
		var tot EnergyTotals
		for i := e.rackLo[r]; i < e.rackHi[r]; i++ {
			tot.add(c.serverTotals(i))
		}
		win := tot.Sub(e.rackLast[r])
		e.rackLast[r] = tot
		if c.Sink != nil {
			c.publish(telemetry.Event{
				Tick: t, Kind: telemetry.KindEnergy,
				Node: n.ID, Level: n.Level, Cause: "rack", Count: ticks,
				Watts: win.Joules, Demand: win.WorkJoules,
				Prev: win.HeatJoules, Bytes: win.ShedJoules,
			})
		}
	}
	win := e.fleet.Sub(e.fleetLast)
	e.fleetLast = e.fleet
	e.lastEmit = t + 1
	if c.Sink == nil {
		return
	}
	root := c.Tree.Root
	c.publish(telemetry.Event{
		Tick: t, Kind: telemetry.KindEnergy,
		Node: root.ID, Level: root.Level, Cause: "fleet", Count: ticks,
		Watts: win.Joules, Demand: win.WorkJoules,
		Prev: win.HeatJoules, Bytes: win.ShedJoules,
	})
}

// serverTotals assembles one server's cumulative figures.
func (c *Controller) serverTotals(i int) EnergyTotals {
	e := c.energy
	return EnergyTotals{
		Joules:     e.joules[i],
		WorkJoules: e.workJ[i],
		ShedJoules: e.shedJ[i],
		HeatJoules: e.heatJ[i],
	}
}

// EnergyTotals returns the fleet-wide cumulative energy figures. O(1).
func (c *Controller) EnergyTotals() EnergyTotals { return c.energy.fleet }

// ServerEnergy returns one server's cumulative energy figures. Only
// tests call it: it is the per-server oracle TestEnergyConservation
// checks the RC energy balance against.
func (c *Controller) ServerEnergy(i int) EnergyTotals { return c.serverTotals(i) }

// RackEnergy returns cumulative energy figures per rack-level PMU
// subtree, in tree order. It allocates; call it off the hot path.
func (c *Controller) RackEnergy() []RackEnergy {
	e := c.energy
	out := make([]RackEnergy, len(e.racks))
	for r, n := range e.racks {
		var tot EnergyTotals
		for i := e.rackLo[r]; i < e.rackHi[r]; i++ {
			tot.add(c.serverTotals(i))
		}
		out[r] = RackEnergy{Node: n.ID, Lo: e.rackLo[r], Hi: e.rackHi[r], Totals: tot}
	}
	return out
}

// ClassEnergy returns the cumulative dynamic energy served to each
// application class, in first-seen construction order. It allocates;
// call it off the hot path.
func (c *Controller) ClassEnergy() []ClassEnergy {
	e := c.energy
	out := make([]ClassEnergy, len(e.classNames))
	for i, name := range e.classNames {
		out[i] = ClassEnergy{Class: name, ServedJoules: e.classServed[i] * c.Cfg.TickSeconds}
	}
	return out
}

// classIndex returns the class bucket of an app ID, −1 for none.
func (e *energyAcc) classIndex(appID int) int32 {
	if appID < 0 || appID >= len(e.classOf) {
		return -1
	}
	return e.classOf[appID]
}
