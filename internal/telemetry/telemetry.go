// Package telemetry is the controller's observability spine: a
// zero-overhead-when-disabled event stream that internal/core publishes
// into at every decision point, plus the sinks that consume it — a JSONL
// writer for files, an in-memory buffer, and an aggregator that folds a
// stream into metrics.Table rows.
//
// Determinism contract: every event is stamped with the simulation tick
// at which the decision was made — never wall clock — and publication
// order within a run is the controller's (single-threaded) decision
// order. A run's event stream is therefore a pure function of its
// configuration and seed: byte-identical across machines, worker counts
// and scheduling orders, matching the experiment engine's replication
// contract (see internal/exp). Sinks are NOT safe for concurrent use;
// each simulation run must own its sink, and multi-run harnesses merge
// streams by buffering per run and replaying in a deterministic order
// (see cluster.RunAll).
package telemetry

import (
	"fmt"
	"strings"
)

// Kind discriminates controller event types. The zero Kind is invalid so
// a decoded event missing its kind cannot masquerade as a real one.
type Kind uint8

const (
	// KindBudgetChange is one node's power-budget allocation at a supply
	// round (Δ_S, Section IV-D): the new top-down budget, the previous
	// one, the demand it was derived from, and the unidirectional-rule
	// "reduced" flag.
	KindBudgetChange Kind = iota + 1
	// KindMigration is one applied (or decided, under transfer latency)
	// workload migration, demand-, consolidation- or restart-caused
	// (Section IV-E).
	KindMigration
	// KindThermalThrottle fires when the Eq. 3 thermal power limit is
	// the binding constraint clamping a server below its granted budget.
	KindThermalThrottle
	// KindSleepWake is a server deactivating (consolidation or
	// drain-to-sleep) or coming back from sleep.
	KindSleepWake
	// KindFailure is an injected crash or repair (failure.go).
	KindFailure
	// KindQoSViolation is one application served degraded or shut down
	// within a settlement window (qos.go).
	KindQoSViolation
	// KindDegraded is a control-plane degradation record (degraded.go):
	// a node entering or leaving budget-lease degraded mode ("enter" /
	// "exit"), or orphaned demand waiting for restart ("orphans").
	KindDegraded
	// KindSensor is a sensing-layer record (sensing.go): a sensor fault
	// injected or cleared ("inject:<mode>" / "clear"), a reading the
	// residual gate rejected ("reject" / "dropout"), a sensor declared
	// unhealthy or healthy again ("unhealthy" / "healthy"), and one
	// record per tick a server's control temperature ran on the
	// model-predicted fallback plus guard band ("guard").
	KindSensor
	// KindEnergy is an energy-accounting window summary (energy.go):
	// joules consumed, useful work, heat dissipated and demand shed over
	// one supply window, per rack ("rack") and fleet-wide ("fleet").
	// Emission is opt-in (core.Config.EnergyEvents) so pre-energy event
	// streams stay byte-identical.
	KindEnergy

	numKinds = int(KindEnergy)
)

// kindNames are the wire names, used in JSONL streams and CLI filters.
var kindNames = [...]string{
	KindBudgetChange:    "budget",
	KindMigration:       "migration",
	KindThermalThrottle: "throttle",
	KindSleepWake:       "sleep-wake",
	KindFailure:         "failure",
	KindQoSViolation:    "qos",
	KindDegraded:        "degraded",
	KindSensor:          "sensor",
	KindEnergy:          "energy",
}

// String returns the kind's wire name.
func (k Kind) String() string {
	if int(k) >= 1 && int(k) <= numKinds {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// MarshalText implements encoding.TextMarshaler so Kind serializes as
// its wire name inside JSON.
func (k Kind) MarshalText() ([]byte, error) {
	if int(k) < 1 || int(k) > numKinds {
		return nil, fmt.Errorf("telemetry: cannot marshal invalid kind %d", int(k))
	}
	return []byte(kindNames[k]), nil
}

// UnmarshalText implements encoding.TextUnmarshaler.
func (k *Kind) UnmarshalText(text []byte) error {
	parsed, err := ParseKind(string(text))
	if err != nil {
		return err
	}
	*k = parsed
	return nil
}

// ParseKind resolves a wire name to its Kind.
func ParseKind(name string) (Kind, error) {
	for k := 1; k <= numKinds; k++ {
		if kindNames[k] == name {
			return Kind(k), nil
		}
	}
	return 0, fmt.Errorf("telemetry: unknown event kind %q (want one of %v)", name, kindNames[1:])
}

// Kinds returns every valid kind in declaration order.
func Kinds() []Kind {
	out := make([]Kind, numKinds)
	for i := range out {
		out[i] = Kind(i + 1)
	}
	return out
}

// Event is one controller decision. The struct is flat — a Kind plus the
// union of every payload field — so streams encode without per-event
// allocation and decode without reflection gymnastics; which fields are
// meaningful depends on Kind (zero values are omitted on the wire):
//
//	BudgetChange    Node, Level, Server (leaves), Watts (new budget),
//	                Prev (old budget), Demand (smoothed CP), Reduced
//	Migration       App, From, To, Hops, Cause, Watts, Bytes, Local
//	ThermalThrottle Server, Watts (clamped effective budget),
//	                Prev (granted budget), Demand (raw demand)
//	SleepWake       Server, Cause ("sleep"/"wake"), Watts (static floor)
//	Failure         Server, Cause ("fail"/"repair"), Count (orphaned
//	                apps), Watts (orphaned demand); PMU crashes use
//	                Node, Level, Cause ("pmu-fail"/"pmu-repair") and
//	                Count (servers in the dead span)
//	QoSViolation    Server, App, Cause ("degraded"/"shutdown"),
//	                Watts (served), Demand (asked)
//	Degraded        Node, Level, Server (leaves), Cause ("enter"/
//	                "exit"), Watts (held budget), Prev (pre-decay
//	                budget on "enter"); orphaned-demand waits use
//	                Cause "orphans", Count (apps), Watts (stranded
//	                demand)
//	Sensor          Server, Cause ("inject:<mode>"/"clear"/"reject"/
//	                "dropout"/"unhealthy"/"healthy"/"guard"), Watts
//	                (the reading, or the fault magnitude on inject, or
//	                the guarded control temperature), Prev (the RC-model
//	                one-step prediction the reading was gated against)
//	Energy          Node, Level, Cause ("rack"/"fleet"), Count (ticks
//	                in the window), Watts (joules consumed over the
//	                window), Demand (useful-work joules), Prev (heat
//	                dissipated, joules), Bytes (demand shed, joules)
type Event struct {
	// Tick is the simulation tick of the decision — never wall clock,
	// so event streams are reproducible byte for byte.
	Tick int  `json:"t"`
	Kind Kind `json:"k"`

	Node    int     `json:"node,omitempty"`    // tree node ID
	Level   int     `json:"level,omitempty"`   // tree level (0 = leaves)
	Server  int     `json:"server,omitempty"`  // server index
	App     int     `json:"app,omitempty"`     // application ID
	From    int     `json:"from,omitempty"`    // source server index
	To      int     `json:"to,omitempty"`      // destination server index
	Hops    int     `json:"hops,omitempty"`    // switches on the path
	Count   int     `json:"count,omitempty"`   // e.g. orphaned applications
	Cause   string  `json:"cause,omitempty"`   // kind-specific label
	Watts   float64 `json:"watts,omitempty"`   // primary power figure
	Prev    float64 `json:"prev,omitempty"`    // previous value (budgets)
	Demand  float64 `json:"demand,omitempty"`  // demand the decision saw
	Bytes   float64 `json:"bytes,omitempty"`   // transferred VM footprint
	Local   bool    `json:"local,omitempty"`   // sibling migration
	Reduced bool    `json:"reduced,omitempty"` // unidirectional-rule flag
}

// Sink consumes controller events. Implementations need not be safe for
// concurrent use: the controller publishes from a single goroutine, and
// harnesses that run simulations in parallel buffer per run (Buffer) and
// replay deterministically.
type Sink interface {
	Publish(Event)
}

// SinkFunc adapts a function to the Sink interface.
type SinkFunc func(Event)

// Publish implements Sink.
func (f SinkFunc) Publish(e Event) { f(e) }

// KindSet is a bitmask of event kinds, for filtering.
type KindSet uint16

// AllKinds has every valid kind set.
const AllKinds KindSet = 1<<numKinds - 1

// Has reports whether k is in the set.
func (s KindSet) Has(k Kind) bool {
	if int(k) < 1 || int(k) > numKinds {
		return false
	}
	return s&(1<<(int(k)-1)) != 0
}

// With returns the set with k added.
func (s KindSet) With(k Kind) KindSet { return s | 1<<(int(k)-1) }

// ParseKindSet parses a comma-separated list of kind wire names
// ("migration,throttle") into a set.
func ParseKindSet(list string) (KindSet, error) {
	var set KindSet
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		k, err := ParseKind(name)
		if err != nil {
			return 0, err
		}
		set = set.With(k)
	}
	if set == 0 {
		return 0, fmt.Errorf("telemetry: empty kind set %q", list)
	}
	return set, nil
}
