// Command willow-crash is the seeded crash-injection harness behind the
// WAL's durability claim. It boots a real willowd with a write-ahead
// journal armed, injects a seeded schedule of live mutations over the
// API, and SIGKILLs the daemon at seeded points mid-run — then restarts
// it and lets recovery replay the journal. After N kill/restart cycles
// the final incarnation runs the simulation to completion, and the
// harness asserts the crashed run is byte-identical to a run that never
// died:
//
//   - /v1/state of the final incarnation matches the state an
//     uninterrupted replay (server.Replay) of the same mutation history
//     computes, byte for byte;
//   - /v1/stats matches too, with only wall-clock and subscriber
//     bookkeeping (uptime, hub counters) excluded;
//   - the snapshot journal equals exactly the mutations the harness got
//     acks for — nothing acknowledged was lost, nothing extra appeared;
//   - the telemetry event stream, assembled from each incarnation's
//     surviving file fragment, is byte-identical to the stream the
//     uninterrupted replay publishes.
//
// The kill protocol matters: the harness only SIGKILLs while no mutation
// is in flight (every POST has been acknowledged), so the WAL must hold
// exactly the acknowledged set — killing mid-POST would leave the
// fsync'd-but-unacknowledged window legitimately ambiguous. Ticks, by
// contrast, are killed mid-flight on purpose: they are deterministic and
// recovery re-executes them bit for bit.
//
//	willow-crash -willowd ./bin/willowd -cycles 5 -seed 1
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"syscall"
	"time"

	"willow/internal/dist"
	"willow/internal/server"
	"willow/internal/telemetry"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "willow-crash:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		willowd = flag.String("willowd", "willowd", "path to the willowd binary under test")
		cycles  = flag.Int("cycles", 5, "SIGKILL/restart cycles before the run completes")
		seed    = flag.Uint64("seed", 1, "seed for the kill schedule and mutation mix")
		ticks   = flag.Int("ticks", 400, "run length in ticks")
		tick    = flag.Duration("tick", 2*time.Millisecond, "willowd tick pace (small: the harness kills mid-run)")
		timeout = flag.Duration("timeout", 3*time.Minute, "overall harness deadline")
		dir     = flag.String("dir", "", "work directory (default: a fresh temp dir, removed on success)")
		keep    = flag.Bool("keep", false, "keep the work directory even on success")
	)
	flag.Parse()

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	workDir := *dir
	if workDir == "" {
		var err error
		if workDir, err = os.MkdirTemp("", "willow-crash-"); err != nil {
			return err
		}
	}
	h := &harness{
		ctx:     ctx,
		willowd: *willowd,
		dir:     workDir,
		ticks:   *ticks,
		tick:    *tick,
		seed:    *seed,
		client:  &http.Client{Timeout: 10 * time.Second},
	}
	err := h.run(*cycles)
	if err == nil && !*keep && *dir == "" {
		os.RemoveAll(workDir)
	} else {
		fmt.Printf("work dir: %s\n", workDir)
	}
	return err
}

// harness drives one crash-recovery experiment end to end.
type harness struct {
	ctx     context.Context
	willowd string
	dir     string
	ticks   int
	tick    time.Duration
	seed    uint64
	client  *http.Client

	base  string     // current incarnation's base URL
	cmd   *exec.Cmd  // current incarnation's process
	acked []ackedMut // every mutation acknowledged, in order
	frags []frag     // per-incarnation event-stream fragments
}

// ackedMut is one mutation the API acknowledged, with the tick the ack
// reported — the boundary the WAL must prove it landed on.
type ackedMut struct {
	mut  server.Mutation
	tick int
}

// frag is one incarnation's event file plus the recovery boundary of the
// incarnation that followed it: only events strictly before that
// boundary are this fragment's contribution (later ticks re-executed
// after the kill and republished). end < 0 means "contributes
// everything" (the final, gracefully stopped incarnation).
type frag struct {
	path string
	end  int
}

func (h *harness) run(cycles int) error {
	src := dist.NewSource(h.seed)
	killSrc := src.Fork()
	mutSrc := src.Fork()

	// Kill targets: distinct, increasing ticks in the first ~60% of the
	// run, leaving the tail for the final incarnation to finish cleanly.
	lo, hi := h.ticks/20, h.ticks*3/5
	if hi <= lo+cycles {
		return fmt.Errorf("ticks=%d too short for %d kill cycles", h.ticks, cycles)
	}
	targets := make([]int, 0, cycles)
	seen := map[int]bool{}
	for len(targets) < cycles {
		t := lo + int(killSrc.Uint64()%uint64(hi-lo))
		if !seen[t] {
			seen[t] = true
			targets = append(targets, t)
		}
	}
	sort.Ints(targets)

	fmt.Printf("willow-crash: seed %d, %d ticks @ %s, kill targets %v\n", h.seed, h.ticks, h.tick, targets)

	for inc := 0; ; inc++ {
		if err := h.start(inc); err != nil {
			return err
		}
		if inc >= cycles {
			break // final incarnation: run to completion below
		}
		if err := h.driveAndKill(inc, targets[inc], mutSrc); err != nil {
			h.cmd.Process.Kill()
			h.cmd.Wait()
			return err
		}
	}
	return h.finish(cycles)
}

// start boots incarnation inc of willowd and waits for its API. The
// first incarnation defines the run; later ones recover it from the WAL
// (their spec flags are ignored — the WAL is authoritative).
func (h *harness) start(inc int) error {
	portFile := filepath.Join(h.dir, "port")
	os.Remove(portFile)
	events := filepath.Join(h.dir, fmt.Sprintf("events_%d.jsonl", inc))
	args := []string{
		"-addr", "127.0.0.1:0",
		"-port-file", portFile,
		"-tick", h.tick.String(),
		"-ticks", fmt.Sprint(h.ticks),
		"-seed", fmt.Sprint(h.seed),
		"-wal", filepath.Join(h.dir, "run.wal"),
		"-events", events,
	}
	cmd := exec.Command(h.willowd, args...)
	cmd.Stdout = os.Stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("starting willowd: %w", err)
	}
	h.cmd = cmd
	h.frags = append(h.frags, frag{path: events, end: -1})

	for {
		if err := h.ctx.Err(); err != nil {
			cmd.Process.Kill()
			cmd.Wait()
			return err
		}
		if b, err := os.ReadFile(portFile); err == nil && len(bytes.TrimSpace(b)) > 0 {
			h.base = "http://" + strings.TrimSpace(string(b))
			if _, err := h.getJSON("/healthz", nil); err == nil {
				return nil
			}
		}
		if cmd.ProcessState != nil {
			return fmt.Errorf("willowd incarnation %d exited before serving", inc)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// driveAndKill waits for the run to reach the kill target, injects a
// seeded burst of mutations (awaiting every ack), then SIGKILLs the
// daemon and records the recovery boundary the next incarnation must
// resume at.
func (h *harness) driveAndKill(inc, target int, mutSrc *dist.Source) error {
	if err := h.waitTick(target); err != nil {
		return err
	}

	burst := 1 + int(mutSrc.Uint64()%3)
	for i := 0; i < burst; i++ {
		if err := h.inject(mutSrc, inc); err != nil {
			return err
		}
	}

	// All mutations acknowledged (hence fsync'd); SIGKILL mid-tick.
	if err := h.cmd.Process.Kill(); err != nil {
		return err
	}
	h.cmd.Wait()

	// The next incarnation resumes at the furthest boundary durable
	// state proves: the max acknowledged mutation tick. This
	// incarnation's fragment contributes only events before it.
	rec := 0
	for _, a := range h.acked {
		if a.tick > rec {
			rec = a.tick
		}
	}
	h.frags[len(h.frags)-1].end = rec
	fmt.Printf("cycle %d: killed at tick >= %d after %d mutations (recovery boundary %d)\n",
		inc, target, burst, rec)
	return nil
}

// inject POSTs one seeded mutation — mostly mean-neutral demand scales,
// with an occasional live chaos injection — and records the ack.
func (h *harness) inject(mutSrc *dist.Source, inc int) error {
	roll := mutSrc.Uint64() % 10
	if roll == 0 {
		seed := mutSrc.Uint64() | 1 // nonzero: no derived-seed ambiguity
		var resp struct {
			Tick int `json:"tick"`
		}
		err := h.postJSON("/v1/chaos", map[string]any{"spec": "light", "seed": seed, "sensor": false}, &resp)
		if err != nil {
			return err
		}
		h.acked = append(h.acked, ackedMut{
			mut:  server.Mutation{Tick: resp.Tick, Kind: "chaos", Spec: "light", Seed: seed},
			tick: resp.Tick,
		})
		return nil
	}
	srvIdx := -1
	if roll%2 == 1 {
		srvIdx = int(mutSrc.Uint64() % 18)
	}
	factor := 0.9 + 0.2*float64(mutSrc.Uint64()%1000)/1000.0
	var resp struct {
		Tick int `json:"tick"`
	}
	if err := h.postJSON("/v1/demand", map[string]any{"server": srvIdx, "factor": factor}, &resp); err != nil {
		return err
	}
	h.acked = append(h.acked, ackedMut{
		mut:  server.Mutation{Tick: resp.Tick, Kind: "demand", Server: srvIdx, Factor: factor},
		tick: resp.Tick,
	})
	return nil
}

// waitTick polls /healthz until the daemon's tick reaches target.
func (h *harness) waitTick(target int) error {
	for {
		if err := h.ctx.Err(); err != nil {
			return err
		}
		var hz struct {
			Tick int `json:"tick"`
		}
		if _, err := h.getJSON("/healthz", &hz); err == nil && hz.Tick >= target {
			return nil
		}
		time.Sleep(h.tick)
	}
}

// finish lets the last incarnation complete the run, captures its final
// state over the API, stops it gracefully, and verifies everything
// against the uninterrupted-run oracle.
func (h *harness) finish(cycles int) error {
	defer func() {
		if h.cmd.ProcessState == nil {
			h.cmd.Process.Kill()
			h.cmd.Wait()
		}
	}()

	// Wait for done=true (the daemon then serves until SIGTERM).
	for {
		if err := h.ctx.Err(); err != nil {
			return err
		}
		var st struct {
			Done bool `json:"done"`
		}
		if _, err := h.getJSON("/v1/stats", &st); err == nil && st.Done {
			break
		}
		time.Sleep(5 * h.tick)
	}

	stateRaw, err := h.getJSON("/v1/state", nil)
	if err != nil {
		return err
	}
	var stats server.StatsView
	if _, err := h.getJSON("/v1/stats", &stats); err != nil {
		return err
	}
	snapRaw, err := h.post("/v1/snapshot", nil)
	if err != nil {
		return err
	}
	var snap server.Snapshot
	if err := json.Unmarshal(snapRaw, &snap); err != nil {
		return fmt.Errorf("final snapshot: %w", err)
	}

	// Graceful stop: SIGTERM drains the tick loop, flushes and closes
	// the events file, so the last fragment is complete.
	if err := h.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	if err := h.cmd.Wait(); err != nil {
		return fmt.Errorf("final willowd exit: %w", err)
	}

	// Check 1: the journal is exactly the acknowledged mutations — every
	// ack survived all the kills, and nothing was invented.
	if len(snap.Journal) != len(h.acked) {
		return fmt.Errorf("journal has %d mutations, harness acked %d", len(snap.Journal), len(h.acked))
	}
	for i, a := range h.acked {
		if !reflect.DeepEqual(snap.Journal[i], a.mut) {
			return fmt.Errorf("journal entry %d = %+v, acked %+v", i, snap.Journal[i], a.mut)
		}
	}

	// The oracle: replay the same (spec, journal) in one uninterrupted
	// run, streaming its telemetry to a file.
	oraclePath := filepath.Join(h.dir, "oracle.jsonl")
	sink, err := telemetry.OpenFileSink(oraclePath, "", "", telemetry.AllKinds)
	if err != nil {
		return err
	}
	oracle, err := server.Replay(snap, sink)
	if err != nil {
		sink.Close()
		return fmt.Errorf("oracle replay: %w", err)
	}
	if err := sink.Close(); err != nil {
		return err
	}
	defer oracle.Close()

	// Check 2: /v1/state byte-identical to the oracle's.
	oracleState, err := json.MarshalIndent(oracle.State(), "", "  ")
	if err != nil {
		return err
	}
	if !bytes.Equal(bytes.TrimSpace(stateRaw), bytes.TrimSpace(oracleState)) {
		return fmt.Errorf("final /v1/state differs from uninterrupted replay:\n--- crashed ---\n%s\n--- oracle ---\n%s",
			stateRaw, oracleState)
	}

	// Check 3: /v1/stats identical once wall-clock and hub bookkeeping
	// (the only legitimately incarnation-dependent fields) are excluded.
	oracleStats := oracle.Stats()
	for _, s := range []*server.StatsView{&stats, &oracleStats} {
		s.Uptime = 0
		s.EventsPublished = 0
		s.EventsDropped = 0
		s.Subscribers = 0
		s.SubscriberStats = nil
	}
	if !reflect.DeepEqual(stats, oracleStats) {
		return fmt.Errorf("final /v1/stats differs from uninterrupted replay:\ncrashed: %+v\noracle:  %+v", stats, oracleStats)
	}

	// Check 4: the assembled event stream is byte-identical.
	assembled, lines, err := h.assemble()
	if err != nil {
		return err
	}
	oracleEvents, err := os.ReadFile(oraclePath)
	if err != nil {
		return err
	}
	if !bytes.Equal(assembled, oracleEvents) {
		return fmt.Errorf("assembled event stream differs from uninterrupted replay (%d vs %d bytes): %s",
			len(assembled), len(oracleEvents), firstDiff(assembled, oracleEvents))
	}

	fmt.Printf("willow-crash OK: %d kills, %d mutations acked, state+stats+journal identical, %d events byte-identical\n",
		cycles, len(h.acked), lines)
	return nil
}

// assemble stitches the per-incarnation event files into the single
// stream an uninterrupted run would have written. Fragment i contributes
// the events before the next incarnation's recovery boundary — later
// ticks were re-executed and republished after the kill — and the final
// fragment contributes everything. A SIGKILL can tear the last line of a
// fragment (the flush contract only covers completed ticks), so an
// unterminated tail line is dropped; every contributed line must parse.
func (h *harness) assemble() ([]byte, int, error) {
	var out []byte
	lines := 0
	for i, fr := range h.frags {
		data, err := os.ReadFile(fr.path)
		if err != nil {
			return nil, 0, err
		}
		for len(data) > 0 {
			nl := bytes.IndexByte(data, '\n')
			if nl < 0 {
				if fr.end < 0 {
					return nil, 0, fmt.Errorf("final fragment %s ends mid-line", fr.path)
				}
				break // torn tail of a killed incarnation
			}
			line := data[:nl+1]
			data = data[nl+1:]
			ev, err := telemetry.Decode(bytes.TrimSuffix(line, []byte("\n")))
			if err != nil {
				return nil, 0, fmt.Errorf("fragment %d (%s): bad event line: %w", i, fr.path, err)
			}
			if fr.end >= 0 && ev.Tick >= fr.end {
				// Re-executed after recovery; the next fragment owns it.
				break
			}
			out = append(out, line...)
			lines++
		}
	}
	return out, lines, nil
}

// firstDiff locates the first byte where two streams diverge, for a
// readable failure message.
func firstDiff(a, b []byte) string {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			lo := i - 80
			if lo < 0 {
				lo = 0
			}
			return fmt.Sprintf("first divergence at byte %d: ...%q vs ...%q", i, a[lo:i+1], b[lo:i+1])
		}
	}
	return fmt.Sprintf("one stream is a prefix of the other (at byte %d)", n)
}

func (h *harness) getJSON(path string, dst any) ([]byte, error) {
	req, err := http.NewRequestWithContext(h.ctx, http.MethodGet, h.base+path, nil)
	if err != nil {
		return nil, err
	}
	return h.do(req, dst)
}

func (h *harness) postJSON(path string, body, dst any) error {
	_, err := h.postBody(path, body, dst)
	return err
}

func (h *harness) post(path string, body any) ([]byte, error) {
	return h.postBody(path, body, nil)
}

func (h *harness) postBody(path string, body, dst any) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return nil, err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(h.ctx, http.MethodPost, h.base+path, rd)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	return h.do(req, dst)
}

func (h *harness) do(req *http.Request, dst any) ([]byte, error) {
	resp, err := h.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s %s: %s: %s", req.Method, req.URL.Path, resp.Status, bytes.TrimSpace(data))
	}
	if dst != nil {
		if err := json.Unmarshal(data, dst); err != nil {
			return nil, fmt.Errorf("%s %s: %w", req.Method, req.URL.Path, err)
		}
	}
	return data, nil
}
