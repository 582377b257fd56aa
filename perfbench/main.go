// Command perfbench is Willow's end-to-end benchmark. It runs one named
// workload in a single process, seeded from --seed, for --seconds of
// measurement, checks the run's outputs, and prints one JSON result as
// the last line of standard output:
//
//	go build -o perfbench . && ./perfbench --workload fleet-steady-100k --seed 1 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 is a separate
// traced run that reports per-layer metrics, timed from this package's
// own calls into each layer's public API. See README.md for the
// workloads, the metrics and the layer-to-end-to-end map.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// workDir holds what a run writes: WAL files and recorded digests. It
// is relative to the working directory, the root of the checkout.
const workDir = ".bench_build"

// trueCap is the physical invariant every workload checks: no server's
// true temperature may pass the 70 °C thermal limit.
const trueCap = 70.0

// params is one invocation's settings.
type params struct {
	seed    uint64
	seconds float64
	traced  bool
}

// budget is the measured duration.
func (p params) budget() time.Duration { return time.Duration(p.seconds * float64(time.Second)) }

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func newResult() *result {
	return &result{Correct: true, Metrics: map[string]metric{}}
}

// set records a metric.
func (r *result) set(name, unit string, v float64) { r.Metrics[name] = metric{Value: v, Unit: unit} }

// check records a failed correctness check on standard error and marks
// the result incorrect.
func (r *result) check(ok bool, format string, args ...any) {
	if !ok {
		r.Correct = false
		fmt.Fprintf(os.Stderr, "perfbench: check failed: "+format+"\n", args...)
	}
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(params) (*result, error){
	"fleet-steady-100k":  func(p params) (*result, error) { return runFleet(steady100k, p) },
	"fleet-deficit-8x1k": func(p params) (*result, error) { return runFleet(deficit8x1k, p) },
	"live-read-1k":       runLive,
}

func main() {
	workload := flag.String("workload", "", "workload name")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1 for the traced run (per-layer metrics)")
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload one of fleet-steady-100k, fleet-deficit-8x1k, live-read-1k, --seconds > 0, --trace 0|1\n")
		os.Exit(2)
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	meta, _ := json.Marshal(map[string]any{
		"workload":   *workload,
		"seed":       *seed,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"wal_fs":     fsType(workDir),
	})
	fmt.Printf("meta %s\n", meta)
	rep, err := run(params{seed: *seed, seconds: *seconds, traced: *trace == 1})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	want := endToEnd
	if *trace == 1 {
		want = perLayer
	}
	if len(rep.Metrics) != len(want) {
		fmt.Fprintf(os.Stderr, "perfbench: %s reported %d metrics, want %d\n", *workload, len(rep.Metrics), len(want))
		os.Exit(1)
	}
	for _, m := range want {
		if got, ok := rep.Metrics[m.name]; !ok || got.Unit != m.unit {
			fmt.Fprintf(os.Stderr, "perfbench: %s did not report %s in %s\n", *workload, m.name, m.unit)
			os.Exit(1)
		}
	}
	out, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("%s\n", out)
}

// checkDigest compares a run's simulated-statistics digest with the one
// recorded by an earlier run of the same binary, workload and seed,
// recording it if this is the first. Simulated results are a pure
// function of the code and the seed, so any difference means host timing
// leaked into the simulation. Records are kept per binary so that a
// change that alters simulated results is never held to its parent's.
func checkDigest(r *result, workload string, seed uint64, digest string) error {
	fmt.Printf("digest %s seed=%d %s\n", workload, seed, digest)
	id, err := binaryID()
	if err != nil {
		return err
	}
	path := filepath.Join(workDir, "digests", id, fmt.Sprintf("%s-%d.txt", workload, seed))
	prev, err := os.ReadFile(path)
	switch {
	case err == nil:
		r.check(string(prev) == digest, "digest for seed %d differs from an earlier run: %q vs %q", seed, digest, prev)
		return nil
	case errors.Is(err, os.ErrNotExist):
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return err
		}
		return os.WriteFile(path, []byte(digest), 0o644)
	default:
		return err
	}
}

// binaryID names the running executable by a hash of its bytes.
func binaryID() (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(exe)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)[:8]), nil
}
