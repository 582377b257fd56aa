package cluster

import (
	"math"
	"slices"
	"testing"

	"willow/internal/core"
	"willow/internal/power"
)

// serverBits is what the Machine's Settled reads of one server, as bits:
// true and observed temperature, consumption, drop, Eqs. 5/6,
// utilization and the sleep flag.
type serverBits [8]uint64

var serverBitNames = [8]string{"T", "TObs", "Consumed", "Dropped", "Deficit", "Surplus", "Utilization", "Asleep"}

func readBits(s *core.Server) serverBits {
	var asleep uint64
	if s.Asleep() {
		asleep = 1
	}
	return serverBits{
		math.Float64bits(s.Thermal.T), math.Float64bits(s.TObs()),
		math.Float64bits(s.Consumed()), math.Float64bits(s.Dropped()),
		math.Float64bits(s.Deficit()), math.Float64bits(s.Surplus()),
		math.Float64bits(s.Utilization()), asleep,
	}
}

// settleSpy stands between a controller and its Machine: it records
// each server's bits as the server settles, counts the calls, and
// passes each call on.
type settleSpy struct {
	*Machine
	seen  []serverBits
	calls []int
}

func (sp *settleSpy) Settled(shard int, s *core.Server) {
	sp.seen[s.Index()] = readBits(s)
	sp.calls[s.Index()]++
	sp.Machine.Settled(shard, s)
}

// TestSettledReadsFinalState pins the premise of measuring inside the
// settle: once a server has settled, nothing else in the tick writes
// what the Machine's Settled reads of it. After every Step, each server
// must read the bits it read when it settled, and must have settled
// exactly once. The rows cover the paths that write server state around
// the settle: transfers in flight, consolidation to sleep, server and
// PMU crashes under budget leases, the estimator under sensor chaos, a
// demand profile, and the integral and mpc policies. Each runs at one
// shard and at three.
func TestSettledReadsFinalState(t *testing.T) {
	chaosRow := func(spec string, lease, window int) func(*Config) {
		return func(cfg *Config) {
			cfg.Core.BudgetLeaseTicks = lease
			cfg.Core.SensorWindow = window
			if _, err := ApplyChaos(cfg, spec, 42); err != nil {
				t.Fatal(err)
			}
		}
	}
	policyRow := func(name string) func(*Config) {
		return func(cfg *Config) {
			cfg.Policy = name
			chaosRow("sensor-medium", 0, 0)(cfg)
		}
	}
	bound := func(m *Machine) bool { return m.ctrl.Cfg.Policy != nil && m.ctrl.Stats.SensorFaults > 0 }
	rows := []struct {
		name  string
		util  float64
		setup func(*Config)
		check func(*Machine) bool // the row's path was taken
	}{
		{"transfers-in-flight", 0.8, func(cfg *Config) { cfg.Core.MigrationLatency = 3 },
			func(m *Machine) bool { return len(m.ctrl.Stats.Migrations) > 0 }},
		{"consolidating", 0.2, func(*Config) {},
			func(m *Machine) bool { return slices.Max(m.Result().AsleepFraction) > 0 }},
		{"crashes-leases", 0.7, chaosRow("heavy", 8, 0),
			func(m *Machine) bool { return m.ctrl.Stats.Failures > 0 && m.ctrl.Stats.PMUFailures > 0 }},
		{"estimator-sensor-chaos", 0.7, chaosRow("sensor-heavy", 0, 5),
			func(m *Machine) bool { return m.ctrl.Stats.SensorFaults > 0 && m.ctrl.Stats.SensorRejected > 0 }},
		{"demand-profile", 0.5, func(cfg *Config) {
			cfg.DemandProfile = power.Sine{Base: 1, Amplitude: 0.4, Period: 80}
		}, func(m *Machine) bool { return m.baseMeans != nil }},
		{"policy-integral", 0.7, policyRow("integral"), bound},
		{"policy-mpc", 0.7, policyRow("mpc"), bound},
	}
	for _, row := range rows {
		for _, shards := range []int{1, 3} {
			cfg := shortConfig(row.util)
			row.setup(&cfg)
			cfg.Core.Shards = shards
			m, err := NewMachine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			n := len(m.ctrl.Servers)
			sp := &settleSpy{Machine: m, seen: make([]serverBits, n), calls: make([]int, n)}
			m.ctrl.Settle = sp
			for !m.Done() {
				tick := m.NextTick()
				m.Step()
				for i, s := range m.ctrl.Servers {
					if sp.calls[i] != 1 {
						t.Fatalf("%s, shards=%d, tick %d: server %d settled %d times", row.name, shards, tick, i, sp.calls[i])
					}
					sp.calls[i] = 0
					got := readBits(s)
					for f := range got {
						if got[f] != sp.seen[i][f] {
							t.Fatalf("%s, shards=%d, tick %d: server %d's %s moved after its settle: %#x → %#x",
								row.name, shards, tick, i, serverBitNames[f], sp.seen[i][f], got[f])
						}
					}
				}
			}
			if !row.check(m) {
				t.Errorf("%s, shards=%d: the row's path was not taken", row.name, shards)
			}
		}
	}
}
