package cluster

import (
	"reflect"
	"testing"

	"willow/internal/telemetry"
)

// TestSensorSmoke is the acceptance gate for sensor-fault tolerance:
// under the sensor-heavy chaos preset the robust estimator holds the
// *true* temperature cap with zero violations, while the naive
// controller — trusting the very same corrupted readings — violates
// it. Identical fault plans (same seed, same private sensor streams)
// make the comparison an estimator ablation, nothing else.
func TestSensorSmoke(t *testing.T) {
	const spec = "sensor-heavy"
	run := func(naive bool) (*Result, int) {
		cfg := shortConfig(0.7)
		cfg.NaiveSensing = naive
		plan, err := ApplyChaos(&cfg, spec, 42)
		if err != nil {
			t.Fatal(err)
		}
		if len(plan.SensorFaults) == 0 {
			t.Fatal("heavy preset produced no sensor faults over this horizon")
		}
		r, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return r, len(plan.SensorFaults)
	}

	robust, planned := run(false)
	if robust.Stats.SensorFaults != planned {
		t.Errorf("controller saw %d sensor faults, plan had %d", robust.Stats.SensorFaults, planned)
	}
	if robust.Stats.SensorRejected == 0 {
		t.Error("heavy sensor chaos but the estimator rejected nothing")
	}
	if robust.Stats.SensorGuardTicks == 0 {
		t.Error("heavy sensor chaos but no guard-band ticks")
	}
	if robust.LimitViolationTicks != 0 {
		t.Errorf("robust estimator let the true temperature over the limit for %d server-ticks (max %.2f °C)",
			robust.LimitViolationTicks, robust.MaxTemp)
	}
	if robust.MaxObsTemp < robust.MaxTemp-1e-6 {
		t.Errorf("observed max %.2f below true max %.2f — safe-side estimate broken",
			robust.MaxObsTemp, robust.MaxTemp)
	}

	naive, _ := run(true)
	if naive.Stats.SensorRejected != 0 || naive.Stats.SensorGuardTicks != 0 {
		t.Errorf("naive run used the estimator: %d rejected, %d guard ticks",
			naive.Stats.SensorRejected, naive.Stats.SensorGuardTicks)
	}
	if naive.LimitViolationTicks == 0 {
		t.Error("naive control under heavy sensor chaos never violated the true limit — the baseline hazard vanished")
	}

	// Same seed, same config → identical outcome.
	robust2, _ := run(false)
	if robust2.TotalEnergy != robust.TotalEnergy || robust2.MaxTemp != robust.MaxTemp ||
		robust2.MaxObsTemp != robust.MaxObsTemp ||
		robust2.Stats.SensorRejected != robust.Stats.SensorRejected ||
		robust2.Stats.SensorGuardTicks != robust.Stats.SensorGuardTicks {
		t.Error("same sensor chaos seed produced different runs")
	}
}

// TestSensingIdentityAtClusterScale pins the zero-cost contract end to
// end: arming the estimator knobs over a fault-free cluster (no
// sensors attached at all) changes neither the telemetry stream nor
// the run totals relative to the knobs-zero baseline.
func TestSensingIdentityAtClusterScale(t *testing.T) {
	run := func(arm bool) (*Result, []telemetry.Event) {
		cfg := shortConfig(0.6)
		cfg.Ticks = 140
		cfg.Warmup = 40
		if arm {
			cfg.Core.SensorWindow = 5
			cfg.Core.SensorGate = 3
			cfg.Core.SensorTrips = 3
			cfg.Core.SensorGuard = 2
		}
		buf := &telemetry.Buffer{}
		cfg.Sink = buf
		r, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return r, buf.Events
	}
	base, baseEvents := run(false)
	armed, armedEvents := run(true)
	if len(baseEvents) == 0 {
		t.Fatal("no events")
	}
	if base.TotalEnergy != armed.TotalEnergy || base.MaxTemp != armed.MaxTemp ||
		base.MaxObsTemp != armed.MaxObsTemp || base.DroppedWattTicks != armed.DroppedWattTicks {
		t.Errorf("arming the estimator over clean sensors changed run totals: energy %v vs %v, max temp %v vs %v",
			base.TotalEnergy, armed.TotalEnergy, base.MaxTemp, armed.MaxTemp)
	}
	if !reflect.DeepEqual(baseEvents, armedEvents) {
		t.Error("arming the estimator over clean sensors changed the event stream")
	}
}
