// Package netsim models the data center network of the paper's Fig. 8:
// a switch hierarchy mirroring the power-control hierarchy, where every
// internal PMU node carries the switch connecting its children.
//
// The paper's switch power model (Section V-B5) is static + dynamic with
// the dynamic part directly proportional to traffic handled. Two traffic
// sources exist:
//
//   - base traffic: proportional to the utilization of the servers whose
//     flows the switch carries (user queries in, responses out), with a
//     configurable fraction continuing north to higher levels;
//   - migration traffic: every VM migration transfers its footprint
//     across every switch on the tree path between source and target —
//     the direct network impact of Willow's adaptation (Figs. 10, 12).
//
// Redundant paths ("in the presence of redundant paths with two switches,
// the load is balanced evenly") are modeled by dividing the per-switch
// load by the redundancy factor.
package netsim

import (
	"fmt"

	"willow/internal/power"
	"willow/internal/topo"
)

// Config parameterizes the network model.
type Config struct {
	// Switch is the power curve applied to every switch.
	Switch power.SwitchModel
	// TrafficPerUtil is the traffic units one server generates per unit
	// of utilization per tick.
	TrafficPerUtil float64
	// NorthFraction is the share of a subtree's base traffic that also
	// traverses the next switch level up (north–south traffic).
	NorthFraction float64
	// BytesPerMigrationUnit converts an application's migration footprint
	// (workload.App.MigrationBytes) into traffic units.
	BytesPerMigrationUnit float64
	// Redundancy divides per-switch load: 2 models the paper's paired
	// switches with even balancing. Must be >= 1.
	Redundancy int
}

// DefaultConfig returns the parameters used by the paper-shaped
// experiments: a nearly-all-dynamic switch power curve (the paper calls
// the static part "very small"), paired redundant switches, and half the
// base traffic continuing north per level.
func DefaultConfig() Config {
	return Config{
		Switch:                power.SwitchModel{Static: 10, PerTraffic: 0.5, MaxTraffic: 400},
		TrafficPerUtil:        100,
		NorthFraction:         0.5,
		BytesPerMigrationUnit: 8,
		Redundancy:            2,
	}
}

// Network accumulates per-switch traffic and energy over a run.
//
// Per-switch state lives in slices indexed by switch node ID. topo's BFS
// numbering puts every internal node before every server, so the
// switches are exactly the node-ID prefix [0, switches); the hot
// per-server traffic loop then costs plain slice stores, never a hash.
type Network struct {
	cfg  Config
	tree *topo.Tree

	// Per-tick accumulators, reset by EndTick.
	tickBase []float64
	tickMig  []float64

	// Run totals.
	ticks       int
	totalMig    []float64 // migration traffic per switch
	totalBase   []float64
	energy      []float64 // watt-ticks per switch
	migTraffic  float64   // total migration traffic, all switches
	baseTraffic float64
	flowHops    int // switch hops accumulated over all flow observations
	flowSamples int // flow observations (one per flow per tick)
}

// New builds a Network over the tree.
func New(tree *topo.Tree, cfg Config) (*Network, error) {
	if err := cfg.Switch.Validate(); err != nil {
		return nil, err
	}
	if cfg.Redundancy < 1 {
		return nil, fmt.Errorf("netsim: redundancy %d must be >= 1", cfg.Redundancy)
	}
	if cfg.NorthFraction < 0 || cfg.NorthFraction > 1 {
		return nil, fmt.Errorf("netsim: north fraction %v outside [0, 1]", cfg.NorthFraction)
	}
	switches := len(tree.Nodes) - len(tree.Servers)
	buf := make([]float64, 5*switches)
	return &Network{
		cfg:       cfg,
		tree:      tree,
		tickBase:  buf[0*switches : 1*switches],
		tickMig:   buf[1*switches : 2*switches],
		totalMig:  buf[2*switches : 3*switches],
		totalBase: buf[3*switches : 4*switches],
		energy:    buf[4*switches : 5*switches],
	}, nil
}

// RecordServerTraffic adds one server's base traffic for the current
// tick: utilization-proportional load on its level-1 switch, decaying by
// NorthFraction per level above.
func (n *Network) RecordServerTraffic(serverIndex int, utilization float64) {
	if utilization <= 0 {
		return
	}
	load := utilization * n.cfg.TrafficPerUtil
	for sw := n.tree.Servers[serverIndex].Parent; sw != nil; sw = sw.Parent {
		n.tickBase[sw.ID] += load
		load *= n.cfg.NorthFraction
	}
}

// Flow is persistent application-to-application communication (IPC).
// The paper's evaluation assumes "minimum or no interaction between
// servers" and leaves IPC-heavy workloads to future work (Section VI);
// flows let the network model quantify what migration does to such
// traffic: a co-located pair costs no switch capacity, a separated pair
// loads every switch on the path between its hosts.
type Flow struct {
	// AppA, AppB are the communicating application IDs.
	AppA, AppB int
	// Rate is the traffic in units per tick.
	Rate float64
}

// RecordFlows adds one tick of IPC traffic for the given flows.
// location maps application ID to hosting server index; flows whose
// endpoints are unlocated are skipped. It also accumulates the hop-count
// statistics behind MeanFlowHops.
func (n *Network) RecordFlows(flows []Flow, location map[int]int) {
	for _, f := range flows {
		a, okA := location[f.AppA]
		b, okB := location[f.AppB]
		if !okA || !okB || f.Rate <= 0 {
			continue
		}
		n.flowSamples++
		if a == b {
			continue // co-located: no network traversal
		}
		path := n.tree.SwitchPath(n.tree.Servers[a], n.tree.Servers[b])
		n.flowHops += len(path)
		for _, sw := range path {
			n.tickBase[sw.ID] += f.Rate
		}
	}
}

// MeanFlowHops returns the average switch hops per flow observation
// (0 when all pairs stayed co-located or no flows were recorded).
func (n *Network) MeanFlowHops() float64 {
	if n.flowSamples == 0 {
		return 0
	}
	return float64(n.flowHops) / float64(n.flowSamples)
}

// RecordMigration adds a migration's transfer to every switch on the
// path between the two servers.
func (n *Network) RecordMigration(fromServer, toServer int, migrationBytes float64) {
	if fromServer == toServer {
		return
	}
	units := migrationBytes * n.cfg.BytesPerMigrationUnit
	a := n.tree.Servers[fromServer]
	b := n.tree.Servers[toServer]
	for _, sw := range n.tree.SwitchPath(a, b) {
		n.tickMig[sw.ID] += units
	}
}

// EndTick settles the current tick: converts accumulated traffic into
// switch power (after redundancy balancing), adds it to the energy
// totals, and clears the per-tick state.
func (n *Network) EndTick() {
	n.ticks++
	for id, base := range n.tickBase {
		mig := n.tickMig[id]
		perSwitch := (base + mig) / float64(n.cfg.Redundancy)
		n.energy[id] += n.cfg.Switch.Power(perSwitch)
		n.totalBase[id] += base
		n.totalMig[id] += mig
		n.baseTraffic += base
		n.migTraffic += mig
	}
	clear(n.tickBase)
	clear(n.tickMig)
}

// Ticks returns the number of settled ticks.
func (n *Network) Ticks() int { return n.ticks }

// MeanSwitchPower returns the average power of the switch at the given
// internal node over the run (0 for a server or an unknown node ID).
func (n *Network) MeanSwitchPower(nodeID int) float64 {
	if n.ticks == 0 || nodeID < 0 || nodeID >= len(n.energy) {
		return 0
	}
	return n.energy[nodeID] / float64(n.ticks)
}

// LevelSwitchPower returns the mean power of every switch at the given
// level, in node order — Fig. 11 plots this for level 1.
func (n *Network) LevelSwitchPower(level int) []float64 {
	var out []float64
	for _, node := range n.tree.LevelNodes(level) {
		if !node.IsLeaf() {
			out = append(out, n.MeanSwitchPower(node.ID))
		}
	}
	return out
}

// LevelMigrationTraffic returns the total migration traffic carried by
// each switch at the given level — the per-switch migration cost of
// Fig. 12.
func (n *Network) LevelMigrationTraffic(level int) []float64 {
	var out []float64
	for _, node := range n.tree.LevelNodes(level) {
		if !node.IsLeaf() {
			out = append(out, n.totalMig[node.ID])
		}
	}
	return out
}

// MigrationTrafficShare returns total migration traffic normalized by
// the maximum traffic the network could have carried over the run
// (capacity × switches × ticks) — the normalization of Fig. 10, which
// makes overheads comparable across utilization levels.
func (n *Network) MigrationTrafficShare() float64 {
	if n.ticks == 0 {
		return 0
	}
	capacity := n.cfg.Switch.MaxTraffic * float64(len(n.energy)) * float64(n.ticks) * float64(n.cfg.Redundancy)
	if capacity <= 0 {
		return 0
	}
	return n.migTraffic / capacity
}

// TotalMigrationTraffic returns the run's total migration traffic units.
func (n *Network) TotalMigrationTraffic() float64 { return n.migTraffic }

// TotalBaseTraffic returns the run's total base traffic units.
func (n *Network) TotalBaseTraffic() float64 { return n.baseTraffic }
