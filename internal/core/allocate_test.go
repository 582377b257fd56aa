package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"willow/internal/dist"
	"willow/internal/power"
	"willow/internal/telemetry"
	"willow/internal/topo"
)

func TestWaterfillProportional(t *testing.T) {
	alloc := waterfillAlloc(100, []float64{1, 3}, []float64{1000, 1000})
	if math.Abs(alloc[0]-25) > 1e-9 || math.Abs(alloc[1]-75) > 1e-9 {
		t.Errorf("alloc = %v, want [25 75]", alloc)
	}
}

func TestWaterfillRespectsCaps(t *testing.T) {
	alloc := waterfillAlloc(100, []float64{1, 1}, []float64{10, 1000})
	if math.Abs(alloc[0]-10) > 1e-6 {
		t.Errorf("capped recipient got %v, want 10", alloc[0])
	}
	if math.Abs(alloc[1]-90) > 1e-6 {
		t.Errorf("overflow recipient got %v, want 90", alloc[1])
	}
}

func TestWaterfillCascadingCaps(t *testing.T) {
	alloc := waterfillAlloc(100, []float64{1, 1, 1}, []float64{5, 20, 1000})
	if math.Abs(alloc[0]-5) > 1e-6 || math.Abs(alloc[1]-20) > 1e-6 || math.Abs(alloc[2]-75) > 1e-6 {
		t.Errorf("alloc = %v, want [5 20 75]", alloc)
	}
}

func TestWaterfillAllCapped(t *testing.T) {
	alloc := waterfillAlloc(100, []float64{1, 1}, []float64{10, 10})
	total := alloc[0] + alloc[1]
	if math.Abs(total-20) > 1e-6 {
		t.Errorf("total allocated %v, want 20 (budget strands)", total)
	}
}

func TestWaterfillZeroWeightGetsNothing(t *testing.T) {
	alloc := waterfillAlloc(100, []float64{0, 1}, []float64{1000, 1000})
	if alloc[0] != 0 {
		t.Errorf("zero-weight recipient got %v", alloc[0])
	}
	if math.Abs(alloc[1]-100) > 1e-9 {
		t.Errorf("weighted recipient got %v, want 100", alloc[1])
	}
}

func TestWaterfillZeroBudget(t *testing.T) {
	alloc := waterfillAlloc(0, []float64{1, 1}, []float64{10, 10})
	if alloc[0] != 0 || alloc[1] != 0 {
		t.Errorf("alloc = %v, want zeros", alloc)
	}
}

// Property: waterfill never exceeds caps, never allocates negative
// amounts, and allocates min(budget, total cap of weighted recipients)
// in total (within tolerance).
func TestWaterfillInvariantsQuick(t *testing.T) {
	f := func(seed uint64, rawN uint8) bool {
		src := dist.NewSource(seed)
		n := int(rawN%8) + 1
		weights := make([]float64, n)
		caps := make([]float64, n)
		reachable := 0.0
		for i := 0; i < n; i++ {
			if src.Float64() < 0.2 {
				weights[i] = 0
			} else {
				weights[i] = src.Uniform(0.1, 10)
			}
			caps[i] = src.Uniform(0, 50)
			if weights[i] > 0 {
				reachable += caps[i]
			}
		}
		budget := src.Uniform(0, 200)
		alloc := waterfillAlloc(budget, weights, caps)
		var total float64
		for i := 0; i < n; i++ {
			if alloc[i] < -1e-9 || alloc[i] > caps[i]+1e-6 {
				return false
			}
			if weights[i] == 0 && alloc[i] != 0 {
				return false
			}
			total += alloc[i]
		}
		want := math.Min(budget, reachable)
		return math.Abs(total-want) < 1e-3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestAllocateAllocFree holds the allocation pass to zero allocations
// once its buffers are warm: two shards divide the racks in parallel,
// budget directives travel through one-window pipes and are lost one
// time in four, leases expire after two ticks, and a sink listens, so
// the measured passes run granted and autonomous rack tasks, the
// servers' loss draws, lease aging and the event merge.
func TestAllocateAllocFree(t *testing.T) {
	specs := make([]ServerSpec, 32)
	for i := range specs {
		specs[i] = serverSpec(100, 400, 0, 60, 50)
	}
	cfg := quietCfg()
	cfg.Shards = 2
	cfg.BudgetLeaseTicks = 2
	cfg.BudgetLatency = 1
	cfg.BudgetLoss = 0.25
	c := buildController(t, []int{2, 4, 4}, uniqueIDs(specs), power.Constant(32*250), cfg)
	if c.Shards() != 2 {
		t.Fatalf("planned %d shards, want 2", c.Shards())
	}
	events := 0
	c.Sink = telemetry.SinkFunc(func(telemetry.Event) { events++ })
	c.Run(16)
	tick := c.Tick()
	pass := func() {
		c.allocateResilient(tick, true)
		tick++
	}
	for range 16 {
		pass()
	}
	before, expiries := events, c.Stats.LeaseExpiries
	autonomous := false
	for range 50 {
		pass()
		for _, task := range c.alloc.tasks {
			autonomous = autonomous || !task.granted
		}
	}
	if events == before {
		t.Error("the warm passes published no event")
	}
	if c.Stats.LeaseExpiries == expiries {
		t.Error("no lease expired in the warm passes")
	}
	if !autonomous {
		t.Error("no rack allocated autonomously in the warm passes")
	}
	if allocs := testing.AllocsPerRun(50, pass); allocs != 0 {
		t.Errorf("allocateResilient allocated %v times per call, want 0", allocs)
	}
}

// TestIrregularShardInvariance runs random irregular trees, whose racks
// differ in width, at shards 1, 2 and 3 and requires one event stream
// and one Stats: budget directives through one-window pipes, lost one
// time in five, short leases, consolidation, a PMU crashed and later
// repaired and a server crashed, so sharded passes meet autonomous
// racks, lease aging and racks narrower than their shard's scratch.
func TestIrregularShardInvariance(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		levels := [][]int{{1 + rng.Intn(3)}}
		depth := 2 + rng.Intn(3)
		for width := levels[0][0]; len(levels) < depth; {
			row := make([]int, width)
			width = 0
			for i := range row {
				row[i] = 1 + rng.Intn(4)
				width += row[i]
			}
			levels = append(levels, row)
		}
		run := func(shards int) string {
			tree, err := topo.BuildIrregular(levels)
			if err != nil {
				t.Fatal(err)
			}
			r := rand.New(rand.NewSource(seed))
			specs := make([]ServerSpec, tree.NumServers())
			for i := range specs {
				specs[i] = serverSpec(80+float64(r.Intn(40)), 300+float64(r.Intn(200)), 0, 30+float64(r.Intn(60)), 20+float64(r.Intn(40)))
			}
			cfg := quietCfg()
			cfg.Shards = shards
			cfg.BudgetLeaseTicks = 1 + int(seed%3)
			cfg.BudgetLatency = 1
			cfg.BudgetLoss = 0.2
			cfg.Eta2 = 5
			cfg.ConsolidateBelow = 0.3
			supply := power.Constant(float64(tree.NumServers()) * (150 + float64(r.Intn(150))))
			c, err := New(tree, uniqueIDs(specs), supply, cfg, dist.NewSource(uint64(seed)))
			if err != nil {
				t.Fatal(err)
			}
			var stream []telemetry.Event
			c.Sink = telemetry.SinkFunc(func(e telemetry.Event) { stream = append(stream, e) })
			pmu := tree.Root.Children[r.Intn(len(tree.Root.Children))]
			for tick := 0; tick < 40; tick++ {
				switch tick {
				case 10:
					if !pmu.IsLeaf() {
						c.FailPMU(pmu.ID)
					}
				case 20:
					c.FailServer(r.Intn(tree.NumServers()))
				case 30:
					if !pmu.IsLeaf() {
						c.RepairPMU(pmu.ID)
					}
				}
				c.Step()
			}
			return fmt.Sprintf("%+v\n%+v", stream, c.Stats)
		}
		want := run(1)
		for _, shards := range []int{2, 3} {
			if run(shards) != want {
				t.Errorf("seed %d, levels %v: shards=%d diverged from the single-threaded run", seed, levels, shards)
			}
		}
	}
}
