package cluster

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"willow/internal/power"
	"willow/internal/queueing"
	"willow/internal/telemetry"
)

// updateGolden regenerates testdata/golden_scenarios.json. Run it only
// on a build whose hot path is known-good — the committed file was
// captured on the pre-SoA code, and the test thereafter pins every
// data-layout refactor to those exact bytes.
var updateGolden = flag.Bool("update-golden", false, "rewrite golden scenario hashes")

const goldenScenariosPath = "testdata/golden_scenarios.json"

type goldenScenario struct {
	Result string `json:"result"`
	Events string `json:"events"`
}

func shaHex(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// encodeResult renders every observable field of a Result into a stable
// byte string. The Config echo is dropped (it holds interfaces, and its
// zero-value rendering would change whenever a Config field is added,
// breaking the pin without any behavior change) — what matters is that
// identical configs keep producing identical outputs. fmt formats maps
// with sorted keys, so core.Stats encodes deterministically.
func encodeResult(r *Result) []byte {
	cp := *r
	cp.Config = Config{}
	// The Energy report (Result's last field) is likewise stripped so
	// the committed pre-energy golden bytes stay valid; its determinism
	// is pinned separately by the energy identity tests (energy_test.go),
	// which compare the full report byte for byte across shard counts
	// and snapshot/restore.
	cp.Energy = EnergyReport{}
	b := []byte(fmt.Sprintf("%+v", cp))
	b = bytes.Replace(b, []byte(fmt.Sprintf(" Energy:%+v}", EnergyReport{})), []byte("}"), 1)
	return bytes.Replace(b, []byte(fmt.Sprintf("%+v", Config{})), []byte("{}"), 1)
}

// goldenConfigs enumerates the hot-path coverage matrix: the paper
// fleet across utilizations, every chaos and sensor preset, and each
// controller mode that changes which code path the tick takes (async
// reporting, transfer latency, budget leases/loss, QoS classes, IPC
// flows, diurnal demand, heterogeneous servers).
func goldenConfigs(t *testing.T) map[string]Config {
	t.Helper()
	out := map[string]Config{}

	for _, u := range []float64{0.3, 0.5, 0.7, 0.9} {
		out[fmt.Sprintf("paper-u%02d", int(u*100))] = shortConfig(u)
	}

	for _, preset := range []string{"light", "medium", "heavy"} {
		cfg := shortConfig(0.7)
		if _, err := ApplyChaos(&cfg, preset, 42); err != nil {
			t.Fatal(err)
		}
		out["chaos-"+preset] = cfg

		cfg = shortConfig(0.7)
		if _, err := ApplyChaos(&cfg, "sensor-"+preset, 42); err != nil {
			t.Fatal(err)
		}
		out["sensor-"+preset] = cfg
	}

	async := shortConfig(0.6)
	async.Core.ReportLatency = 2
	async.Core.ReportLoss = 0.1
	out["async"] = async

	transfer := shortConfig(0.8)
	transfer.Core.MigrationLatency = 3
	out["transfer"] = transfer

	resilient := shortConfig(0.7)
	resilient.Core.BudgetLeaseTicks = 8
	resilient.Core.BudgetLatency = 1
	resilient.Core.BudgetLoss = 0.05
	out["resilient"] = resilient

	qos := shortConfig(0.9)
	qos.PriorityClasses = 3
	out["qos"] = qos

	ipc := shortConfig(0.6)
	ipc.IPCFlows = 12
	ipc.IPCRate = 2
	ipc.SLO = queueing.SLO{Service: 1, Target: 10}
	out["ipc"] = ipc

	diurnal := shortConfig(0.5)
	diurnal.DemandProfile = power.Sine{Base: 1, Amplitude: 0.4, Period: 80}
	out["diurnal"] = diurnal

	green := shortConfig(0.7)
	green.Supply = power.Sine{Base: 6000, Amplitude: 2000, Period: 100}
	out["green"] = green

	hetero := shortConfig(0.6)
	models := make([]power.ServerModel, 18)
	for i := range models {
		m := hetero.ServerPower
		m.Peak *= 1 + 0.05*float64(i%4)
		models[i] = m
	}
	hetero.PerServerPower = models
	out["hetero"] = hetero

	local := shortConfig(0.7)
	local.Core.LocalOnly = true
	out["local-only"] = local

	// The alternative controller policies, each under the sensor-medium
	// plan their safety contract is written against. The willow policy
	// needs no scenario of its own: TestPolicyWillowIdentity pins it
	// byte-identical to every nil-policy scenario above.
	for _, pol := range []string{"integral", "mpc"} {
		cfg := shortConfig(0.7)
		cfg.Policy = pol
		if _, err := ApplyChaos(&cfg, "sensor-medium", 42); err != nil {
			t.Fatal(err)
		}
		out["policy-"+pol] = cfg
	}

	return out
}

// captureScenario runs one config with a JSONL sink attached and
// digests the result and the event stream.
func captureScenario(t *testing.T, cfg Config) goldenScenario {
	t.Helper()
	var stream bytes.Buffer
	w := telemetry.NewWriter(&stream)
	cfg.Sink = w
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return goldenScenario{Result: shaHex(encodeResult(r)), Events: shaHex(stream.Bytes())}
}

// goldenShards are the shard counts every golden scenario runs at. The
// paper fleet has six racks: 2 and 3 shards split them evenly, 6 gives
// each rack its own shard. The chaos, resilient and policy-mpc
// scenarios are the only sharded runs with failed PMUs, budget loss
// and latency, leases, or a policy that divides budget.
var goldenShards = []int{1, 2, 3, 6}

// TestGoldenScenarioIdentity pins cluster.Run across the controller's
// mode matrix — including chaos and sensor presets — to byte-identical
// Results and JSONL event streams captured before the fleet-scale
// hot-path refactor, at every shard count in goldenShards.
func TestGoldenScenarioIdentity(t *testing.T) {
	golden := map[string]goldenScenario{}
	if !*updateGolden {
		raw, err := os.ReadFile(goldenScenariosPath)
		if err != nil {
			t.Fatalf("missing golden file (run with -update-golden on a known-good build): %v", err)
		}
		if err := json.Unmarshal(raw, &golden); err != nil {
			t.Fatal(err)
		}
	}

	configs := goldenConfigs(t)
	names := make([]string, 0, len(configs))
	for name := range configs {
		names = append(names, name)
	}
	sort.Strings(names)

	if *updateGolden {
		got := map[string]goldenScenario{}
		for _, name := range names {
			got[name] = captureScenario(t, configs[name])
		}
		if err := os.MkdirAll(filepath.Dir(goldenScenariosPath), 0o755); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		buf.WriteString("{\n")
		for i, name := range names {
			raw, _ := json.Marshal(got[name])
			key, _ := json.Marshal(name)
			buf.WriteString("  ")
			buf.Write(key)
			buf.WriteString(": ")
			buf.Write(raw)
			if i < len(names)-1 {
				buf.WriteByte(',')
			}
			buf.WriteByte('\n')
		}
		buf.WriteString("}\n")
		if err := os.WriteFile(goldenScenariosPath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d golden scenarios to %s", len(got), goldenScenariosPath)
		return
	}

	if len(configs) != len(golden) {
		t.Errorf("scenario count changed: golden has %d, test has %d", len(golden), len(configs))
	}
	for _, name := range names {
		want, ok := golden[name]
		if !ok {
			t.Errorf("%s: scenario missing from the golden file", name)
			continue
		}
		for _, shards := range goldenShards {
			cfg := configs[name]
			cfg.Core.Shards = shards
			g := captureScenario(t, cfg)
			if g.Events != want.Events {
				t.Errorf("%s, shards=%d: event stream diverged from pre-refactor golden", name, shards)
			}
			if g.Result != want.Result {
				t.Errorf("%s, shards=%d: Result diverged from pre-refactor golden", name, shards)
			}
		}
	}
	for name := range golden {
		if _, ok := configs[name]; !ok {
			t.Errorf("%s: scenario disappeared", name)
		}
	}
}
