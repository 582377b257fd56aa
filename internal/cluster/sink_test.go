package cluster

import (
	"slices"
	"testing"

	"willow/internal/chaos"
	"willow/internal/power"
	"willow/internal/queueing"
	"willow/internal/telemetry"
)

// migratingConfig is a shortened paper run that migrates for every
// reason the network model and the IPC location map take in: demand
// migrations under a diurnal profile, consolidation at low load, and
// restarts of the applications two failed servers orphan. It carries
// IPC flows and energy windows too.
func migratingConfig() Config {
	cfg := shortConfig(0.6)
	cfg.DemandProfile = power.Sine{Base: 1, Amplitude: 0.5, Period: 60}
	cfg.IPCFlows = 12
	cfg.IPCRate = 2
	cfg.SLO = queueing.SLO{Service: 1, Target: 10}
	cfg.Faults.ServerFailures = []chaos.ServerFailure{{Server: 3, Tick: 70, RepairTick: 150}, {Server: 11, Tick: 95}}
	cfg.Core.EnergyEvents = true
	return cfg
}

// TestSinkDoesNotSteerRun pins the nil-sink path: the Machine learns of
// migrations from the controller's Stats, not its event stream, so a
// run with no sink at all — whose controller builds no events — has the
// same Result, down to the migration traffic and flow hops, as one
// publishing into a sink that discards everything.
func TestSinkDoesNotSteerRun(t *testing.T) {
	run := func(sink telemetry.Sink) *Result {
		cfg := migratingConfig()
		cfg.Sink = sink
		r, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	silent, discarded := run(nil), run(telemetry.Discard)
	if silent.DemandMigrations == 0 || silent.ConsolidationMigrations == 0 || silent.Stats.Restarts == 0 {
		t.Fatalf("config does not migrate for every cause: demand %d, consolidation %d, restarts %d",
			silent.DemandMigrations, silent.ConsolidationMigrations, silent.Stats.Restarts)
	}
	if silent.MigrationShare <= 0 || silent.MeanFlowHops <= 0 {
		t.Fatalf("migrations or flows left no trace: share %v, flow hops %v", silent.MigrationShare, silent.MeanFlowHops)
	}
	if shaHex(encodeResult(silent)) != shaHex(encodeResult(discarded)) {
		t.Error("a nil sink changed the Result")
	}
}

// TestSetSinkMidRun: a sink attached with SetSink at a tick boundary
// receives exactly the tick-≥T suffix of the stream an always-attached
// sink sees — the energy windows included, which advance whether or not
// anything listens.
func TestSetSinkMidRun(t *testing.T) {
	const attachAt = 101 // mid supply window, after both failures
	var full telemetry.Buffer
	cfg := migratingConfig()
	cfg.Sink = &full
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	var want []telemetry.Event
	energy := 0
	for _, e := range full.Events {
		if e.Tick >= attachAt {
			want = append(want, e)
			if e.Kind == telemetry.KindEnergy {
				energy++
			}
		}
	}
	if energy == 0 || len(want) == len(full.Events) {
		t.Fatalf("suffix from tick %d holds %d of %d events, %d energy records", attachAt, len(want), len(full.Events), energy)
	}

	m, err := NewMachine(migratingConfig())
	if err != nil {
		t.Fatal(err)
	}
	var tail telemetry.Buffer
	for !m.Done() {
		if m.NextTick() == attachAt {
			m.SetSink(&tail)
		}
		m.Step()
	}
	if !slices.Equal(tail.Events, want) {
		t.Errorf("sink attached at tick %d saw %d events, want the %d-event suffix of the always-attached stream",
			attachAt, len(tail.Events), len(want))
	}
}
