package netsim

import (
	"math"
	"math/rand"
	"testing"

	"willow/internal/power"
	"willow/internal/topo"
)

func testTree(t *testing.T) *topo.Tree {
	t.Helper()
	tr, err := topo.Build([]int{2, 3, 3})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func testConfig() Config {
	cfg := DefaultConfig()
	cfg.Redundancy = 1 // simpler arithmetic in unit tests
	return cfg
}

// carrying counts the switches a per-switch accumulator (tickBase,
// tickMig, ...) records traffic on.
func carrying(acc []float64) int {
	n := 0
	for _, v := range acc {
		if v != 0 {
			n++
		}
	}
	return n
}

func TestNewValidation(t *testing.T) {
	tr := testTree(t)
	bad := testConfig()
	bad.Redundancy = 0
	if _, err := New(tr, bad); err == nil {
		t.Error("redundancy 0 accepted")
	}
	bad = testConfig()
	bad.NorthFraction = 1.5
	if _, err := New(tr, bad); err == nil {
		t.Error("north fraction 1.5 accepted")
	}
	bad = testConfig()
	bad.Switch = power.SwitchModel{MaxTraffic: 0}
	if _, err := New(tr, bad); err == nil {
		t.Error("invalid switch model accepted")
	}
}

func TestServerTrafficClimbsWithNorthFraction(t *testing.T) {
	tr := testTree(t)
	cfg := testConfig()
	cfg.TrafficPerUtil = 100
	cfg.NorthFraction = 0.5
	n, err := New(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	n.RecordServerTraffic(0, 0.4) // 40 units at L1, 20 at L2, 10 at root
	s := tr.Servers[0]
	l1 := s.Parent
	l2 := l1.Parent
	if got := n.tickBase[l1.ID]; math.Abs(got-40) > 1e-9 {
		t.Errorf("L1 base = %v, want 40", got)
	}
	if got := n.tickBase[l2.ID]; math.Abs(got-20) > 1e-9 {
		t.Errorf("L2 base = %v, want 20", got)
	}
	if got := n.tickBase[tr.Root.ID]; math.Abs(got-10) > 1e-9 {
		t.Errorf("root base = %v, want 10", got)
	}
}

func TestZeroUtilizationNoTraffic(t *testing.T) {
	tr := testTree(t)
	n, err := New(tr, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	n.RecordServerTraffic(0, 0)
	if carrying(n.tickBase) != 0 {
		t.Error("zero utilization generated traffic")
	}
}

func TestMigrationTrafficOnPath(t *testing.T) {
	tr := testTree(t)
	cfg := testConfig()
	cfg.BytesPerMigrationUnit = 2
	n, err := New(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Siblings: one switch.
	n.RecordMigration(0, 1, 5)
	parent := tr.Servers[0].Parent
	if got := n.tickMig[parent.ID]; math.Abs(got-10) > 1e-9 {
		t.Errorf("sibling migration traffic = %v, want 10", got)
	}
	// Cross-root: 5 switches each get the transfer.
	n2, _ := New(tr, cfg)
	n2.RecordMigration(0, 17, 5)
	if got := carrying(n2.tickMig); got != 5 {
		t.Errorf("cross-root migration touched %d switches, want 5", got)
	}
	for id, v := range n2.tickMig {
		if v != 0 && math.Abs(v-10) > 1e-9 {
			t.Errorf("switch %d carries %v, want 10", id, v)
		}
	}
}

func TestMigrationToSelfIgnored(t *testing.T) {
	tr := testTree(t)
	n, _ := New(tr, testConfig())
	n.RecordMigration(3, 3, 5)
	if carrying(n.tickMig) != 0 {
		t.Error("self-migration generated traffic")
	}
}

func TestEndTickAccumulatesEnergy(t *testing.T) {
	tr := testTree(t)
	cfg := testConfig()
	cfg.Switch = power.SwitchModel{Static: 10, PerTraffic: 1, MaxTraffic: 1000}
	cfg.TrafficPerUtil = 100
	cfg.NorthFraction = 0
	n, err := New(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	n.RecordServerTraffic(0, 0.5) // 50 units on server 0's L1 switch
	n.EndTick()
	l1 := tr.Servers[0].Parent
	if got := n.MeanSwitchPower(l1.ID); math.Abs(got-60) > 1e-9 {
		t.Errorf("loaded switch mean power = %v, want 60", got)
	}
	// Idle switches still burn static power.
	other := tr.Servers[17].Parent
	if got := n.MeanSwitchPower(other.ID); math.Abs(got-10) > 1e-9 {
		t.Errorf("idle switch mean power = %v, want 10 (static)", got)
	}
	if n.ticks != 1 {
		t.Errorf("ticks = %d", n.ticks)
	}
	// Per-tick state cleared.
	if carrying(n.tickBase) != 0 || carrying(n.tickMig) != 0 {
		t.Error("tick accumulators not cleared")
	}
	// Only switches burn power: a server's node ID and IDs outside the
	// tree read as zero.
	for _, id := range []int{tr.Servers[0].ID, tr.Servers[17].ID, len(tr.Nodes), -1} {
		if got := n.MeanSwitchPower(id); got != 0 {
			t.Errorf("MeanSwitchPower(%d) = %v, want 0 (not a switch)", id, got)
		}
	}
}

func TestRedundancyHalvesLoad(t *testing.T) {
	tr := testTree(t)
	base := testConfig()
	base.Switch = power.SwitchModel{Static: 0, PerTraffic: 1, MaxTraffic: 1000}
	base.NorthFraction = 0

	single, _ := New(tr, base)
	dual := base
	dual.Redundancy = 2
	paired, _ := New(tr, dual)

	single.RecordServerTraffic(0, 1)
	paired.RecordServerTraffic(0, 1)
	single.EndTick()
	paired.EndTick()

	l1 := tr.Servers[0].Parent.ID
	if got, want := paired.MeanSwitchPower(l1), single.MeanSwitchPower(l1)/2; math.Abs(got-want) > 1e-9 {
		t.Errorf("redundant switch power = %v, want half of %v", got, single.MeanSwitchPower(l1))
	}
}

func TestLevelSwitchPower(t *testing.T) {
	tr := testTree(t)
	n, _ := New(tr, testConfig())
	for i := 0; i < tr.NumServers(); i++ {
		n.RecordServerTraffic(i, 0.5)
	}
	n.EndTick()
	l1 := n.LevelSwitchPower(1)
	if len(l1) != 6 {
		t.Fatalf("level-1 has %d switches, want 6", len(l1))
	}
	// Uniform load -> uniform switch power (the Fig. 11 observation).
	for _, p := range l1 {
		if math.Abs(p-l1[0]) > 1e-9 {
			t.Errorf("level-1 switch powers uneven: %v", l1)
		}
	}
}

func TestLevelMigrationTraffic(t *testing.T) {
	tr := testTree(t)
	cfg := testConfig()
	cfg.BytesPerMigrationUnit = 1
	n, _ := New(tr, cfg)
	n.RecordMigration(0, 1, 7)
	n.EndTick()
	l1 := n.LevelMigrationTraffic(1)
	if len(l1) != 6 {
		t.Fatalf("level-1 has %d entries", len(l1))
	}
	if math.Abs(l1[0]-7) > 1e-9 {
		t.Errorf("first L1 switch migration traffic = %v, want 7", l1[0])
	}
	for _, v := range l1[1:] {
		if v != 0 {
			t.Errorf("unrelated switch carries migration traffic %v", v)
		}
	}
}

func TestMigrationTrafficShare(t *testing.T) {
	tr := testTree(t)
	cfg := testConfig()
	cfg.Switch.MaxTraffic = 100
	cfg.BytesPerMigrationUnit = 1
	n, _ := New(tr, cfg)
	if got := n.MigrationTrafficShare(); got != 0 {
		t.Errorf("share before any tick = %v", got)
	}
	n.RecordMigration(0, 1, 50)
	n.EndTick()
	// 9 switches * 100 capacity * 1 tick = 900; 50 units moved.
	want := 50.0 / 900.0
	if got := n.MigrationTrafficShare(); math.Abs(got-want) > 1e-12 {
		t.Errorf("share = %v, want %v", got, want)
	}
}

func BenchmarkEndTick(b *testing.B) {
	tr, err := topo.Build([]int{4, 4, 4})
	if err != nil {
		b.Fatal(err)
	}
	n, err := New(tr, DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		for s := 0; s < tr.NumServers(); s++ {
			n.RecordServerTraffic(s, 0.5)
		}
		n.RecordMigration(i%tr.NumServers(), (i*13+7)%tr.NumServers(), 5)
		n.EndTick()
	}
}

func TestRecordFlowsColocatedIsFree(t *testing.T) {
	tr := testTree(t)
	n, _ := New(tr, testConfig())
	loc := map[int]int{1: 3, 2: 3}
	n.RecordFlows([]Flow{{AppA: 1, AppB: 2, Rate: 10}}, loc)
	if carrying(n.tickBase) != 0 {
		t.Error("co-located flow generated switch traffic")
	}
	if got := n.MeanFlowHops(); got != 0 {
		t.Errorf("MeanFlowHops = %v, want 0", got)
	}
}

func TestRecordFlowsSeparatedLoadsPath(t *testing.T) {
	tr := testTree(t)
	n, _ := New(tr, testConfig())
	loc := map[int]int{1: 0, 2: 17}
	n.RecordFlows([]Flow{{AppA: 1, AppB: 2, Rate: 10}}, loc)
	if got := carrying(n.tickBase); got != 5 {
		t.Fatalf("flow loaded %d switches, want 5 (cross-root path)", got)
	}
	for _, v := range n.tickBase {
		if v != 0 && v != 10 {
			t.Errorf("switch carries %v, want 10", v)
		}
	}
	if got := n.MeanFlowHops(); got != 5 {
		t.Errorf("MeanFlowHops = %v, want 5", got)
	}
}

func TestRecordFlowsSkipsUnlocatedAndZeroRate(t *testing.T) {
	tr := testTree(t)
	n, _ := New(tr, testConfig())
	n.RecordFlows([]Flow{
		{AppA: 1, AppB: 2, Rate: 10}, // app 2 unlocated
		{AppA: 1, AppB: 3, Rate: 0},  // zero rate
	}, map[int]int{1: 0, 3: 5})
	if carrying(n.tickBase) != 0 {
		t.Error("invalid flows generated traffic")
	}
}

func TestMeanFlowHopsMixes(t *testing.T) {
	tr := testTree(t)
	n, _ := New(tr, testConfig())
	loc := map[int]int{1: 0, 2: 1, 3: 4, 4: 4}
	n.RecordFlows([]Flow{
		{AppA: 1, AppB: 2, Rate: 1}, // siblings: 1 hop
		{AppA: 3, AppB: 4, Rate: 1}, // co-located: 0 hops
	}, loc)
	if got := n.MeanFlowHops(); got != 0.5 {
		t.Errorf("MeanFlowHops = %v, want 0.5", got)
	}
}

// TestSwitchLoadsMatchSwitchPath holds the flattened path walk to its
// oracle, topo.Tree.SwitchPath: over random server pairs on two tree
// shapes, flows and migrations load each switch with the same sums, bit
// for bit, and the hop counts (RecordFlows' and topo.Tree.HopCount)
// equal the built path's length.
func TestSwitchLoadsMatchSwitchPath(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, fanout := range [][]int{{2, 3, 3}, {3, 4, 5}} {
		tr, err := topo.Build(fanout)
		if err != nil {
			t.Fatal(err)
		}
		n, err := New(tr, testConfig())
		if err != nil {
			t.Fatal(err)
		}
		base := make([]float64, len(n.tickBase))
		mig := make([]float64, len(n.tickMig))
		hops := 0
		for range 500 {
			a, b := rng.Intn(tr.NumServers()), rng.Intn(tr.NumServers())
			rate, bytes := rng.Float64()*10, rng.Float64()*100
			n.RecordFlows([]Flow{{AppA: 1, AppB: 2, Rate: rate}}, map[int]int{1: a, 2: b})
			n.RecordMigration(a, b, bytes)
			path := tr.SwitchPath(tr.Servers[a], tr.Servers[b])
			for _, sw := range path {
				base[sw.ID] += rate
				mig[sw.ID] += bytes * n.cfg.BytesPerMigrationUnit
			}
			hops += len(path)
			if got := tr.HopCount(tr.Servers[a], tr.Servers[b]); got != len(path) {
				t.Fatalf("%v: HopCount(%d, %d) = %d, want %d", fanout, a, b, got, len(path))
			}
		}
		for id := range base {
			if n.tickBase[id] != base[id] || n.tickMig[id] != mig[id] {
				t.Fatalf("%v: switch %d carries flows %v, migrations %v; SwitchPath gives %v, %v",
					fanout, id, n.tickBase[id], n.tickMig[id], base[id], mig[id])
			}
		}
		if n.flowHops != hops {
			t.Fatalf("%v: %d flow hops, SwitchPath gives %d", fanout, n.flowHops, hops)
		}
	}
}

// TestSwitchWalksAllocFree holds the per-tick switch walks to zero
// allocations: RecordFlows with separated pairs, a cross-root
// RecordMigration, and topo.Tree.HopCount.
func TestSwitchWalksAllocFree(t *testing.T) {
	tr := testTree(t)
	n, err := New(tr, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	var flows []Flow
	location := map[int]int{}
	for i := range 12 {
		flows = append(flows, Flow{AppA: 2 * i, AppB: 2*i + 1, Rate: 1})
		location[2*i], location[2*i+1] = i, 17-i
	}
	first, last := tr.Servers[0], tr.Servers[17]
	for name, f := range map[string]func(){
		"RecordFlows":     func() { n.RecordFlows(flows, location) },
		"RecordMigration": func() { n.RecordMigration(0, 17, 50) },
		"HopCount":        func() { tr.HopCount(first, last) },
	} {
		if allocs := testing.AllocsPerRun(100, f); allocs != 0 {
			t.Errorf("%s allocated %v times per call, want 0", name, allocs)
		}
	}
}
