package main

import (
	"maps"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: willow/internal/cluster
BenchmarkFleetTick/1k-2         	      10	    238661 ns/op	       238.7 ns/server-tick	    3014 B/op	      41 allocs/op
BenchmarkFleetTick/100k-2       	      10	  32116736 ns/op	       321.2 ns/server-tick	  122102 B/op	      41 allocs/op
BenchmarkAllSequential          	       1	 912345678 ns/op	 1234567 B/op	  298575 allocs/op
PASS
ok  	willow/internal/cluster	3.227s
`

func TestParseBenchOutput(t *testing.T) {
	got, err := parseBenchOutput(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{
		"BenchmarkFleetTick/1k":   41,
		"BenchmarkFleetTick/100k": 41,
		"BenchmarkAllSequential":  298575,
	}
	if !maps.Equal(got, want) {
		t.Errorf("parsed %v, want %v", got, want)
	}
}

// TestUpdateKeepsRowsAbsentFromInput: updating from one gate's
// benchmarks rewrites their rows and keeps every other gate's rows.
func TestUpdateKeepsRowsAbsentFromInput(t *testing.T) {
	path := filepath.Join(t.TempDir(), "baseline.txt")
	if err := writeBaseline(path, map[string]int64{
		"BenchmarkAllSequential":            298575,
		"BenchmarkFleetTick/10k":            64,
		"BenchmarkFleetTickPolicy/integral": 53,
	}); err != nil {
		t.Fatal(err)
	}
	merged, err := mergeBaseline(path, map[string]int64{
		"BenchmarkAllSequential": 298000,
		"BenchmarkServerTick":    2641,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := writeBaseline(path, merged); err != nil {
		t.Fatal(err)
	}
	got, err := readBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{
		"BenchmarkAllSequential":            298000,
		"BenchmarkServerTick":               2641,
		"BenchmarkFleetTick/10k":            64,
		"BenchmarkFleetTickPolicy/integral": 53,
	}
	if !maps.Equal(got, want) {
		t.Errorf("baseline after update %v, want %v", got, want)
	}
}

func TestUpdateCreatesMissingBaseline(t *testing.T) {
	path := filepath.Join(t.TempDir(), "baseline.txt")
	in := map[string]int64{"BenchmarkEventsFanout": 0}
	merged, err := mergeBaseline(path, in)
	if err != nil {
		t.Fatal(err)
	}
	if !maps.Equal(merged, in) {
		t.Errorf("merge into a missing file = %v, want %v", merged, in)
	}
}

func TestUpdateRejectsMalformedBaseline(t *testing.T) {
	path := filepath.Join(t.TempDir(), "baseline.txt")
	if err := os.WriteFile(path, []byte("BenchmarkA 1 extra\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := mergeBaseline(path, map[string]int64{"BenchmarkA": 2}); err == nil {
		t.Error("malformed baseline merged without error")
	}
}

func TestCheckFailsOverMaxRegress(t *testing.T) {
	base := map[string]int64{"BenchmarkA": 100, "BenchmarkB": 0}
	for _, tc := range []struct {
		name string
		got  map[string]int64
		pass bool
		line string
	}{
		{"at the limit", map[string]int64{"BenchmarkA": 110}, true, "ok   BenchmarkA"},
		{"improved", map[string]int64{"BenchmarkA": 41, "BenchmarkB": 0}, true, "ok   BenchmarkB"},
		{"over the limit", map[string]int64{"BenchmarkA": 111}, false, "FAIL BenchmarkA"},
		{"zero baseline grew", map[string]int64{"BenchmarkB": 1}, false, "FAIL BenchmarkB"},
		{"no baseline row", map[string]int64{"BenchmarkC": 1}, false, "BenchmarkC: no baseline entry"},
	} {
		var out strings.Builder
		if got := check(&out, base, tc.got, 0.10); got != tc.pass {
			t.Errorf("%s: check = %v, want %v\n%s", tc.name, got, tc.pass, out.String())
		}
		if !strings.Contains(out.String(), tc.line) {
			t.Errorf("%s: output %q lacks %q", tc.name, out.String(), tc.line)
		}
	}
}
