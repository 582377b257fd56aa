package exp

import (
	"reflect"
	"strings"
	"testing"
)

// TestAllExperimentsRunQuick executes every registered experiment in
// quick mode and checks each produces a non-empty table and notes.
func TestAllExperimentsRunQuick(t *testing.T) {
	for _, id := range IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel() // doubles as a race-detector stress of the fan-out path
			res, err := registry[id].Run(Options{Quick: true})
			if err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			if res.Table == nil || len(res.Table.Rows) == 0 {
				t.Fatalf("%s: empty table", id)
			}
			if len(res.Notes) == 0 {
				t.Errorf("%s: no headline notes", id)
			}
			if out := res.Table.String(); !strings.Contains(out, res.Table.Columns[0]) {
				t.Errorf("%s: table does not render", id)
			}
		})
	}
}

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"fig4", "fig5", "fig6", "fig7", "fig9", "fig10", "fig11", "fig12",
		"table1", "table2", "fig14", "fig15", "fig16", "fig17", "fig19", "table3",
		"prop-messages", "prop-stability", "prop-binpack",
		"prop-convergence", "prop-scaling", "prop-imbalance",
		"ablation-margin", "ablation-local", "ablation-hier",
		"ablation-granularity", "ablation-smoothing", "ablation-foresight",
		"ext-demandside",
		"ext-qos", "ext-cooling", "ext-ipc", "ext-device", "ext-idle",
		"ext-async", "ext-latency", "ext-transfer",
		"ext-hetero", "ext-variance", "ext-failure",
		"resilience", "sensing", "efficiency",
		"bakeoff", "bakeoff-stress",
	}
	ids := map[string]bool{}
	for _, id := range IDs() {
		ids[id] = true
	}
	for _, w := range want {
		if !ids[w] {
			t.Errorf("experiment %q missing from registry", w)
		}
	}
	if len(IDs()) != len(want) {
		t.Errorf("registry has %d experiments, want %d", len(IDs()), len(want))
	}
}

// TestSensingChaosSpec: Options.ChaosSpec replaces the sensing
// experiment's intensity ladder with one naive and one robust row over
// the same sensor faults.
func TestSensingChaosSpec(t *testing.T) {
	res, err := registry["sensing"].Run(Options{Quick: true, ChaosSpec: "sensor-light,sensor-dropout=1"})
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, row := range res.Table.Rows {
		names = append(names, row[0])
	}
	if want := []string{"clean", "custom/naive", "custom/robust"}; !reflect.DeepEqual(names, want) {
		t.Fatalf("rows %v, want %v", names, want)
	}
	naive, robust := res.Table.Rows[1], res.Table.Rows[2]
	if naive[1] == "0" || naive[1] != robust[1] {
		t.Errorf("fault counts %s (naive) and %s (robust), want one non-zero count", naive[1], robust[1])
	}
	if naive[2] != "0" || robust[2] == "0" {
		t.Errorf("rejected readings %s (naive) and %s (robust), want only the robust run to reject", naive[2], robust[2])
	}
}

func TestGetUnknown(t *testing.T) {
	_, err := Get("nope")
	if err == nil {
		t.Fatal("unknown id accepted")
	}
	// The message embeds the queried id and the full registry listing so a
	// typo on the CLI is self-correcting.
	if msg := err.Error(); !strings.Contains(msg, `"nope"`) {
		t.Errorf("error %q does not name the unknown id", msg)
	} else if !strings.Contains(msg, "fig5") || !strings.Contains(msg, "table3") {
		t.Errorf("error %q does not list the known ids", msg)
	}
}

func TestRegisterDuplicatePanics(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("duplicate register did not panic")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "fig5") {
			t.Errorf("panic %v does not name the duplicate id", r)
		}
	}()
	// fig5 is registered by sim_experiments.go's init; the dup check runs
	// before any mutation, so the registry is untouched.
	register("fig5", "duplicate", func(Options) (*Result, error) { return nil, nil })
}

func TestSeedOverride(t *testing.T) {
	o := Options{}
	if got := o.seed(9); got != 9 {
		t.Errorf("default seed = %d", got)
	}
	o.Seed = 4
	if got := o.seed(9); got != 4 {
		t.Errorf("override seed = %d", got)
	}
}
