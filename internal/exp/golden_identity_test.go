package exp

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"willow/internal/telemetry"
)

// updateGolden regenerates testdata/golden_experiments.json. The file
// must only ever be produced by a build whose output is known-good (it
// was captured on the pre-SoA hot path before the fleet-scale refactor
// landed); afterwards the test pins every refactor to those bytes.
var updateGolden = flag.Bool("update-golden", false, "rewrite golden experiment hashes")

const goldenExperimentsPath = "testdata/golden_experiments.json"

// goldenEntry is the digest of one experiment run: the SHA-256 of the
// rendered table+notes and of the JSONL telemetry stream.
type goldenEntry struct {
	Table  string `json:"table"`
	Events string `json:"events"`
}

func sha(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// captureExperiment runs one experiment in quick mode with the fixed
// default seed and digests its observable output.
func captureExperiment(t *testing.T, id string) goldenEntry {
	t.Helper()
	var stream bytes.Buffer
	w := telemetry.NewWriter(&stream)
	e, err := Get(id)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(Options{Quick: true, EventSink: w})
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	if err := w.Flush(); err != nil {
		t.Fatalf("%s: flush: %v", id, err)
	}
	return goldenEntry{Table: sha([]byte(render(res))), Events: sha(stream.Bytes())}
}

// TestGoldenExperimentIdentity pins every seed experiment (fig4 …
// table3) to byte-identical rendered tables and JSONL event streams
// captured before the fleet-scale hot-path refactor. Timing
// experiments are excluded from the table digest (their cells embed
// wall clock) but their event streams must still match.
func TestGoldenExperimentIdentity(t *testing.T) {
	golden := map[string]goldenEntry{}
	if !*updateGolden {
		raw, err := os.ReadFile(goldenExperimentsPath)
		if err != nil {
			t.Fatalf("missing golden file (run with -update-golden on a known-good build): %v", err)
		}
		if err := json.Unmarshal(raw, &golden); err != nil {
			t.Fatal(err)
		}
	}

	got := map[string]goldenEntry{}
	for _, id := range IDs() {
		e, err := Get(id)
		if err != nil {
			t.Fatal(err)
		}
		entry := captureExperiment(t, id)
		if e.Timing {
			entry.Table = "timing"
		}
		got[id] = entry
	}

	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenExperimentsPath), 0o755); err != nil {
			t.Fatal(err)
		}
		ids := make([]string, 0, len(got))
		for id := range got {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		var buf bytes.Buffer
		buf.WriteString("{\n")
		for i, id := range ids {
			e := got[id]
			raw, _ := json.Marshal(e)
			buf.WriteString("  ")
			key, _ := json.Marshal(id)
			buf.Write(key)
			buf.WriteString(": ")
			buf.Write(raw)
			if i < len(ids)-1 {
				buf.WriteByte(',')
			}
			buf.WriteByte('\n')
		}
		buf.WriteString("}\n")
		if err := os.WriteFile(goldenExperimentsPath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d golden entries to %s", len(got), goldenExperimentsPath)
		return
	}

	if len(got) != len(golden) {
		t.Errorf("experiment count changed: golden has %d, registry has %d", len(golden), len(got))
	}
	for id, want := range golden {
		g, ok := got[id]
		if !ok {
			t.Errorf("%s: experiment disappeared from the registry", id)
			continue
		}
		if g.Events != want.Events {
			t.Errorf("%s: event stream diverged from pre-refactor golden (got %s, want %s)", id, g.Events, want.Events)
		}
		if g.Table != want.Table {
			t.Errorf("%s: rendered table diverged from pre-refactor golden (got %s, want %s)", id, g.Table, want.Table)
		}
	}
}
