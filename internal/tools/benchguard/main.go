// Command benchguard gates allocation regressions: it parses `go test
// -bench -benchmem` output, extracts allocs/op per benchmark, and
// compares them against a checked-in baseline file. A benchmark whose
// allocs/op exceed the baseline by more than -max-regress fails the
// run — the cheap, machine-stable guard that keeps the telemetry layer
// zero-overhead-when-disabled (`make bench-smoke`). Timings are NOT
// compared: ns/op depends on the machine, allocation counts do not.
//
//	go test -run '^$' -bench '^BenchmarkAllSequential$' -benchtime 1x -benchmem . > bench_smoke.txt
//	go run ./internal/tools/benchguard -input bench_smoke.txt -baseline docs/bench_baseline.txt
//	go run ./internal/tools/benchguard -input bench_smoke.txt -baseline docs/bench_baseline.txt -update
//
// The baseline file holds `<benchmark> <allocs/op>` lines (# comments
// allowed). -update merges the input into it: rows for benchmarks in the
// input are rewritten, rows absent from the input are kept, so updating
// from one gate's benchmarks never drops another gate's rows.
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"sort"
	"strconv"
	"strings"
)

func main() {
	var (
		input      = flag.String("input", "", "benchmark output to check (default: stdin)")
		baseline   = flag.String("baseline", "docs/bench_baseline.txt", "checked-in allocs/op baseline")
		maxRegress = flag.Float64("max-regress", 0.10, "maximum tolerated fractional allocs/op increase")
		update     = flag.Bool("update", false, "rewrite the baseline from the input instead of checking")
	)
	flag.Parse()

	in := os.Stdin
	if *input != "" {
		f, err := os.Open(*input)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		in = f
	}
	got, err := parseBenchOutput(in)
	if err != nil {
		fatal(err)
	}
	if len(got) == 0 {
		fatal(fmt.Errorf("no allocs/op rows in input — was -benchmem passed?"))
	}

	if *update {
		merged, err := mergeBaseline(*baseline, got)
		if err != nil {
			fatal(err)
		}
		if err := writeBaseline(*baseline, merged); err != nil {
			fatal(err)
		}
		fmt.Printf("benchguard: wrote %d baseline entries to %s (%d from the input, %d kept)\n",
			len(merged), *baseline, len(got), len(merged)-len(got))
		return
	}

	base, err := readBaseline(*baseline)
	if err != nil {
		fatal(fmt.Errorf("%w (run with -update to create the baseline)", err))
	}
	if !check(os.Stdout, base, got, *maxRegress) {
		os.Exit(1)
	}
}

// check compares every benchmark in got against its baseline row,
// printing one verdict line each, and reports whether all passed. A
// benchmark fails when it has no baseline row or its allocs/op exceed
// the baseline by more than maxRegress.
func check(w io.Writer, base, got map[string]int64, maxRegress float64) bool {
	ok := true
	for _, name := range sortedKeys(got) {
		want, found := base[name]
		if !found {
			fmt.Fprintf(w, "benchguard: %s: no baseline entry — add one with -update\n", name)
			ok = false
			continue
		}
		cur := got[name]
		limit := float64(want) * (1 + maxRegress)
		switch {
		case float64(cur) > limit:
			fmt.Fprintf(w, "benchguard: FAIL %s: %d allocs/op vs baseline %d (+%.1f%% > %.0f%% allowed)\n",
				name, cur, want, pct(cur, want), maxRegress*100)
			ok = false
		default:
			fmt.Fprintf(w, "benchguard: ok   %s: %d allocs/op vs baseline %d (%+.1f%%)\n",
				name, cur, want, pct(cur, want))
		}
	}
	return ok
}

// mergeBaseline overlays got onto the baseline at path (a missing file
// counts as empty) and returns the merged rows.
func mergeBaseline(path string, got map[string]int64) (map[string]int64, error) {
	base, err := readBaseline(path)
	if errors.Is(err, fs.ErrNotExist) {
		base = map[string]int64{}
	} else if err != nil {
		return nil, err
	}
	for name, v := range got {
		base[name] = v
	}
	return base, nil
}

func pct(cur, base int64) float64 {
	if base == 0 {
		return 0
	}
	return (float64(cur)/float64(base) - 1) * 100
}

// parseBenchOutput extracts `<benchmark> <allocs/op>` pairs from `go
// test -bench -benchmem` output. The trailing -<GOMAXPROCS> suffix is
// stripped so baselines transfer across machines.
func parseBenchOutput(r io.Reader) (map[string]int64, error) {
	out := map[string]int64{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 3 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		for i := 2; i < len(fields); i++ {
			if fields[i] != "allocs/op" {
				continue
			}
			v, err := strconv.ParseInt(fields[i-1], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("benchguard: bad allocs/op in %q: %w", sc.Text(), err)
			}
			name := fields[0]
			if cut := strings.LastIndex(name, "-"); cut > 0 {
				name = name[:cut]
			}
			out[name] = v
		}
	}
	return out, sc.Err()
}

func readBaseline(path string) (map[string]int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]int64{}
	sc := bufio.NewScanner(f)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) != 2 {
			return nil, fmt.Errorf("benchguard: %s:%d: want `<benchmark> <allocs/op>`, got %q", path, line, text)
		}
		v, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("benchguard: %s:%d: %w", path, line, err)
		}
		out[fields[0]] = v
	}
	return out, sc.Err()
}

func writeBaseline(path string, got map[string]int64) error {
	var sb strings.Builder
	sb.WriteString("# allocs/op baseline for `make bench-smoke` (benchguard).\n")
	sb.WriteString("# Regenerate after intentional allocation changes:\n")
	sb.WriteString("#   make bench-baseline\n")
	for _, name := range sortedKeys(got) {
		fmt.Fprintf(&sb, "%s %d\n", name, got[name])
	}
	return os.WriteFile(path, []byte(sb.String()), 0o644)
}

func sortedKeys(m map[string]int64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchguard:", err)
	os.Exit(1)
}
