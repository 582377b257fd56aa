package core_test

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"willow/internal/cluster"
	"willow/internal/power"
	"willow/internal/telemetry"
)

// TestFullAggregationOracle pins the incremental dirty-subtree demand
// aggregation against the paper's naive full recompute on a sharded
// 10,000-server fleet. Two machines step the same config; the reference
// marks every PMU dirty before each tick, so its aggregation re-sums
// the whole tree. Every PMU's CP and TP must agree to the bit after
// every tick, and the event streams and Results at the end.
//
// Noise is off, so every smoother settles at its first observation and
// no server's CP moves on its own afterwards. The run then scales the
// demand of a few scattered single servers, one at a time: each such
// change reaches its rack's aggregate only through that server's own
// dirty mark.
func TestFullAggregationOracle(t *testing.T) {
	const servers = 10_000
	cfg := cluster.PaperConfig(0.5)
	cfg.Fanout = []int{10, 10, 10, 10}
	cfg.Supply = power.Constant(0.85 * servers * 450)
	cfg.Core.NoiseLambda = -1
	cfg.Core.Shards = 4
	cfg.Warmup = 8
	cfg.Ticks = 40
	scale := map[int]struct {
		server int
		factor float64
	}{
		10: {0, 1.3},
		16: {4242, 0.6},
		22: {7777, 1.5},
		28: {servers - 1, 0.8},
	}

	type run struct {
		m      *cluster.Machine
		stream bytes.Buffer
		w      *telemetry.Writer
	}
	start := func() *run {
		r := &run{}
		r.w = telemetry.NewWriter(&r.stream)
		c := cfg
		c.Sink = r.w
		m, err := cluster.NewMachine(c)
		if err != nil {
			t.Fatal(err)
		}
		r.m = m
		return r
	}
	inc, full := start(), start()
	for !inc.m.Done() {
		tick := inc.m.NextTick()
		if s, ok := scale[tick]; ok {
			for _, r := range []*run{inc, full} {
				if err := r.m.ScaleDemand(s.server, s.factor); err != nil {
					t.Fatal(err)
				}
			}
		}
		full.m.Controller().MarkAllDirty()
		inc.m.Step()
		full.m.Step()
		got, want := inc.m.Controller().PMUViews(), full.m.Controller().PMUViews()
		for i := range want {
			g, w := got[i], want[i]
			if math.Float64bits(g.CP) != math.Float64bits(w.CP) || math.Float64bits(g.TP) != math.Float64bits(w.TP) {
				t.Fatalf("tick %d: node %d incremental CP/TP %v/%v != full recompute %v/%v", tick, w.Node, g.CP, g.TP, w.CP, w.TP)
			}
		}
	}
	result := func(r *run) string {
		if err := r.w.Flush(); err != nil {
			t.Fatal(err)
		}
		res := *r.m.Result()
		res.Config = cluster.Config{}
		return fmt.Sprintf("%+v", res)
	}
	if result(inc) != result(full) {
		t.Error("incremental aggregation Result diverged from full-recompute oracle")
	}
	if !bytes.Equal(inc.stream.Bytes(), full.stream.Bytes()) {
		t.Error("incremental aggregation event stream diverged from full-recompute oracle")
	}
}
