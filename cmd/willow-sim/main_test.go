package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"willow/internal/server"
)

// sim runs willow-sim with args and returns its stdout.
func sim(t *testing.T, args ...string) string {
	t.Helper()
	var out bytes.Buffer
	if err := run(args, &out); err != nil {
		t.Fatalf("willow-sim %q: %v", args, err)
	}
	return out.String()
}

// TestConfigRoundTripAndOverrides: -write-config writes the spec the
// flags describe, -config runs it back byte for byte, and a scenario
// flag set on the command line overrides the file while every other
// value still comes from it.
func TestConfigRoundTripAndOverrides(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.json")
	base := []string{"-util", "0.7", "-fanout", "2,3", "-supply", "deficit-steps", "-ticks", "150", "-warmup", "30", "-seed", "9", "-chaos", "light"}
	if out := sim(t, append(base, "-write-config", path)...); !strings.Contains(out, path) {
		t.Fatalf("-write-config printed %q", out)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var written server.Spec
	if err := json.Unmarshal(data, &written); err != nil {
		t.Fatal(err)
	}
	want := server.Spec{Util: 0.7, Fanout: []int{2, 3}, Ticks: 150, Warmup: 30, Seed: 9, Supply: "deficit-steps", Hotzone: true, Chaos: "light"}
	if !reflect.DeepEqual(written, want) {
		t.Fatalf("wrote %+v, want %+v", written, want)
	}

	if got, want := sim(t, "-config", path), sim(t, base...); got != want {
		t.Errorf("-config run differs from the flags that wrote it:\n%s\nwant\n%s", got, want)
	}
	override := []string{"-util", "0.9", "-ticks", "120", "-supply", "sine", "-chaos", ""}
	got := sim(t, append([]string{"-config", path}, override...)...)
	if want := sim(t, append(base, override...)...); got != want {
		t.Errorf("flags over -config differ from the same flags alone:\n%s\nwant\n%s", got, want)
	}
	if !strings.Contains(got, "U=90%") || !strings.Contains(got, "supply=sine, 120 ticks (30 warm-up)") {
		t.Errorf("override run header: %q", strings.SplitN(got, "\n", 2)[0])
	}
}

// TestRunErrors: a degenerate run length is Build's error, as in
// willowd, and a -config file must hold only Spec fields (the pre-Spec
// config format is rejected).
func TestRunErrors(t *testing.T) {
	spec := server.DefaultSpec()
	spec.Ticks = 0
	_, buildErr := spec.Build()
	if err := run([]string{"-ticks", "0"}, &bytes.Buffer{}); err == nil || err.Error() != buildErr.Error() {
		t.Errorf("-ticks 0: err = %v, want %v", err, buildErr)
	}
	old := writeConfig(t, "old.json", `{"fanout":[2,3,3],"static_watts":135,"utilization":0.5}`)
	configErr(t, old, `unknown field "utilization"`)
}

// TestConfigMissingFile: a -config file that does not exist is an error.
func TestConfigMissingFile(t *testing.T) {
	configErr(t, filepath.Join(t.TempDir(), "missing.json"), "no such file")
}

// TestConfigBadJSON: a -config file that does not parse is an error
// naming the file.
func TestConfigBadJSON(t *testing.T) {
	configErr(t, writeConfig(t, "bad.json", "{not json"), "bad.json")
}

// writeConfig writes body to a file named name in a fresh directory.
func writeConfig(t *testing.T, name, body string) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

// configErr runs willow-sim -config path and wants an error containing
// wantErr.
func configErr(t *testing.T, path, wantErr string) {
	t.Helper()
	err := run([]string{"-config", path}, &bytes.Buffer{})
	if err == nil || !strings.Contains(err.Error(), wantErr) {
		t.Errorf("-config %s: err = %v, want one containing %q", filepath.Base(path), err, wantErr)
	}
}
