// Command willow-crash is the process-level harness behind willowd's
// end-to-end claims. It boots real willowd processes and drives them in
// one of five ways (-mode).
//
// Three modes are seeded fault experiments. They arm write-ahead
// journals, inject a seeded schedule of live mutations over the API,
// and interrupt the run:
//
//   - crash: SIGKILL the daemon at seeded ticks and restart it on the
//     same WAL, letting recovery replay the journal;
//   - failover: boot a hot-standby follower whose replication link runs
//     through an in-process TCP disruption proxy, partition and stall
//     that link on a seeded schedule, SIGKILL the primary the instant
//     the follower has caught up, and promote the follower — which is
//     the primary of the next cycle;
//   - migrate: a scripted live migration (server.RunMigration) mid-run,
//     with mutations on both sides of the cutover.
//
// The surviving daemon then completes the run, and the harness asserts
// the interrupted run is byte-identical to one that never was:
//
//   - /v1/state matches the state an uninterrupted replay
//     (server.Replay) of the same mutation history computes, byte for
//     byte;
//   - /v1/stats matches too, with only wall-clock and subscriber
//     bookkeeping (uptime, hub counters) excluded;
//   - the snapshot journal equals exactly the mutations the harness got
//     acks for — nothing acknowledged was lost, nothing extra appeared;
//   - the telemetry event stream, assembled from each incarnation's
//     event file cut at its successor's resume boundary, is
//     byte-identical to the stream the uninterrupted replay publishes.
//
// The kill protocol matters: a daemon is only SIGKILLed while no
// mutation is in flight (every POST has been acknowledged) and, in
// failover mode, once every acknowledged mutation is durable on the
// follower — so the surviving journal must hold exactly the
// acknowledged set. Killing mid-POST would leave the
// fsync'd-but-unacknowledged window legitimately ambiguous. Ticks, by
// contrast, are killed mid-flight on purpose: they are deterministic
// and the successor re-executes them bit for bit.
//
// Two modes are smokes of the live surface (smoke.go), each one daemon
// drained with SIGTERM:
//
//   - serve: 1,000 seeded requests from 8 clients with a streaming
//     subscriber, no failed request, exit 0 on SIGTERM, a complete
//     event file, and a final snapshot that a fast-forward restore runs
//     to completion;
//   - obs: two concurrent checks of the /metrics exposition (strict
//     parse, families, energy consistency) and the /v1/efficiency
//     scoreboard, exit 0 on SIGTERM, and a final snapshot.
//
// The make targets run it as:
//
//	willow-crash -willowd ./bin/willowd -mode crash -cycles 5 -seed 1
//	willow-crash -willowd ./bin/willowd -mode failover -cycles 3 -seed 2 -disruptions 5
//	willow-crash -willowd ./bin/willowd -mode migrate -seed 3
//	willow-crash -willowd ./bin/willowd -mode serve -tick 2ms -ticks 5000
//	willow-crash -willowd ./bin/willowd -mode obs -tick 2ms -ticks 5000
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
	"slices"
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
		mode    = flag.String("mode", "crash", "crash (SIGKILL/restart cycles), failover (kill/promote cycles), migrate (scripted live cutover), serve (load smoke) or obs (observability smoke)")
		cycles  = flag.Int("cycles", 3, "kill cycles before the run completes (crash and failover modes)")
		seed    = flag.Uint64("seed", 1, "seed for the kill targets, mutation mix and disruption schedule")
		ticks   = flag.Int("ticks", 400, "run length in ticks")
		tick    = flag.Duration("tick", 5*time.Millisecond, "willowd tick pace (small: the harness kills mid-run)")
		disrupt = flag.Int("disruptions", 3, "partition/stall rounds per cycle on the replication link (failover mode)")
		timeout = flag.Duration("timeout", 4*time.Minute, "overall harness deadline")
		dir     = flag.String("dir", "", "work directory (default: a fresh temp dir, removed on success)")
		keep    = flag.Bool("keep", false, "keep the work directory even on success")
	)
	flag.Parse()
	switch *mode {
	case "crash", "failover", "migrate", "serve", "obs":
	default:
		return fmt.Errorf("unknown -mode %q (want crash, failover, migrate, serve or obs)", *mode)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	workDir := *dir
	var err error
	if workDir == "" {
		workDir, err = os.MkdirTemp("", "willow-crash-")
	} else {
		err = os.MkdirAll(workDir, 0o755)
	}
	if err != nil {
		return err
	}
	h := &harness{
		ctx:         ctx,
		willowd:     *willowd,
		dir:         workDir,
		ticks:       *ticks,
		tick:        *tick,
		seed:        *seed,
		disruptions: *disrupt,
		client:      &http.Client{Timeout: 10 * time.Second},
	}
	err = h.run(*mode, *cycles)
	if err == nil && !*keep && *dir == "" {
		os.RemoveAll(workDir)
	} else {
		fmt.Printf("work dir: %s\n", workDir)
	}
	return err
}

// harness drives one fault experiment end to end.
type harness struct {
	ctx         context.Context
	willowd     string
	dir         string
	ticks       int
	tick        time.Duration
	seed        uint64
	disruptions int
	client      *http.Client

	procs []*proc           // every incarnation spawned, reaped by run
	acked []server.Mutation // every mutation acknowledged, in order
	frags []frag            // per-incarnation event-stream fragments
}

// proc is one running willowd incarnation.
type proc struct {
	cmd    *exec.Cmd
	base   string        // API base URL, set once the daemon serves
	exited chan struct{} // closed once the process is reaped
}

// kill SIGKILLs p (a no-op once it exited) and waits until it is reaped.
func (p *proc) kill() {
	p.cmd.Process.Kill()
	<-p.exited
}

// stop SIGTERMs p and requires a clean exit: the graceful drain
// flushes and closes its events file, so its fragment is complete.
func (p *proc) stop() error {
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	<-p.exited
	if !p.cmd.ProcessState.Success() {
		return fmt.Errorf("willowd %s", p.cmd.ProcessState)
	}
	return nil
}

// frag is one incarnation's event file plus the boundary its successor
// resumed at: only events strictly before it are this fragment's
// contribution (later ticks re-executed on the successor and were
// republished there). end < 0 means "contributes everything" (the
// final, gracefully stopped incarnation).
type frag struct {
	path string
	end  int
}

// run drives mode: a smoke directly, a fault mode over the seeded
// schedule it draws here. The streams fork in a fixed order — kill
// targets, mutations, link disruptions — so a seed draws the same
// schedule in every mode that uses a stream.
func (h *harness) run(mode string, cycles int) error {
	defer func() {
		for _, p := range h.procs {
			p.kill()
		}
	}()
	switch mode {
	case "serve", "obs":
		fmt.Printf("willow-crash: %s mode, %d ticks @ %s\n", mode, h.ticks, h.tick)
		if mode == "serve" {
			return h.serveSmoke()
		}
		return h.obsSmoke()
	}
	src := dist.NewSource(h.seed)
	head := fmt.Sprintf("willow-crash: %s mode, seed %d, %d ticks @ %s", mode, h.seed, h.ticks, h.tick)
	if mode == "migrate" {
		fmt.Println(head)
		return h.migrate(src.Fork())
	}
	targets, err := killTargets(src.Fork(), h.ticks, cycles)
	if err != nil {
		return err
	}
	fmt.Printf("%s, kill targets %v\n", head, targets)
	mutSrc, chaosSrc := src.Fork(), src.Fork()
	if mode == "crash" {
		return h.crash(targets, mutSrc)
	}
	return h.failover(targets, mutSrc, chaosSrc)
}

// killTargets draws cycles distinct kill ticks, in increasing order,
// from [ticks/20, ticks*3/5): the first ~60 % of the run, leaving the
// tail for the final incarnation to finish cleanly. If wall-clock
// overhead pushes a cycle past its target, the wait returns at once and
// the cycle still runs — the byte-identity checks are tick-agnostic.
func killTargets(src *dist.Source, ticks, cycles int) ([]int, error) {
	lo, hi := ticks/20, ticks*3/5
	if cycles < 0 || hi <= lo+cycles {
		return nil, fmt.Errorf("ticks=%d too short for %d kill cycles", ticks, cycles)
	}
	targets := make([]int, 0, cycles)
	for len(targets) < cycles {
		if t := lo + int(src.Uint64()%uint64(hi-lo)); !slices.Contains(targets, t) {
			targets = append(targets, t)
		}
	}
	slices.Sort(targets)
	return targets, nil
}

// runArgs are the flags of a primary that defines the run. A
// recovering or promoted incarnation takes the spec from its WAL.
func (h *harness) runArgs(wal string) []string {
	return []string{"-ticks", fmt.Sprint(h.ticks), "-seed", fmt.Sprint(h.seed), "-wal", filepath.Join(h.dir, wal)}
}

// follow spawns incarnation inc as a hot standby tailing primaryURL
// with its own WAL.
func (h *harness) follow(inc int, primaryURL string) (*proc, error) {
	return h.spawn(inc, "-follow", primaryURL,
		"-seed", fmt.Sprint(h.seed+uint64(inc)), // distinct backoff jitter
		"-wal", filepath.Join(h.dir, fmt.Sprintf("wal_%d.wal", inc)))
}

// crash SIGKILLs and restarts the daemon once per target on one WAL.
func (h *harness) crash(targets []int, mutSrc *dist.Source) error {
	args := h.runArgs("run.wal")
	for inc, target := range targets {
		p, err := h.spawn(inc, args...)
		if err != nil {
			return err
		}
		n, err := h.burst(p, target, mutSrc)
		if err != nil {
			return err
		}
		// All mutations acknowledged (hence fsync'd); SIGKILL mid-tick.
		p.kill()
		// Recovery resumes at the furthest boundary durable state
		// proves: the last acknowledged mutation's tick (acks arrive
		// in tick order, and each incarnation resumes at or after the
		// last one's).
		rec := h.acked[len(h.acked)-1].Tick
		h.frags[inc].end = rec
		fmt.Printf("cycle %d: killed at tick >= %d after %d mutations (recovery boundary %d)\n", inc, target, n, rec)
	}
	p, err := h.spawn(len(targets), args...)
	if err != nil {
		return err
	}
	return h.finish(p, fmt.Sprintf("%d kills", len(targets)))
}

// failover chains one kill/promote cycle per target.
func (h *harness) failover(targets []int, mutSrc, chaosSrc *dist.Source) error {
	pri, err := h.spawn(0, h.runArgs("wal_0.wal")...)
	if err != nil {
		return err
	}
	for c, target := range targets {
		if pri, err = h.promoteCycle(c, pri, target, mutSrc, chaosSrc); err != nil {
			return err
		}
	}
	return h.finish(pri, fmt.Sprintf("%d promote cycles", len(targets)))
}

// promoteCycle boots a standby behind a disruption proxy, injects a
// burst on primary pri at target, disrupts the replication link, waits
// for the standby to catch up to the acknowledged set through the
// healed link, SIGKILLs pri at that exact moment and promotes the
// standby, which it returns.
func (h *harness) promoteCycle(c int, pri *proc, target int, mutSrc, chaosSrc *dist.Source) (*proc, error) {
	px, err := newProxy(pri.base)
	if err != nil {
		return nil, err
	}
	defer px.close()
	fol, err := h.follow(c+1, px.url())
	if err != nil {
		return nil, err
	}
	n, err := h.burst(pri, target, mutSrc)
	if err != nil {
		return nil, err
	}
	// The follower must retry, resume from its durable cursor, and
	// survive server-side overflow disconnects.
	px.disrupt(h.ctx, h.disruptions, chaosSrc)
	want := len(h.acked)
	if err := h.await(fol, fmt.Sprintf("catch-up to %d records", want), func(hv server.HealthView) bool {
		return hv.Replication != nil && hv.Replication.Records >= want
	}); err != nil {
		return nil, err
	}
	pri.kill()
	var pr struct {
		Tick    int `json:"tick"`
		Records int `json:"records"`
	}
	if _, err := h.call(http.MethodPost, fol.base+"/v1/promote", nil, &pr); err != nil {
		return nil, err
	}
	if pr.Records != want {
		return nil, fmt.Errorf("cycle %d: promoted with %d records, harness acked %d", c, pr.Records, want)
	}
	h.frags[c].end = pr.Tick
	fmt.Printf("cycle %d: killed primary at tick >= %d after %d mutations; follower promoted at tick %d (%d records)\n",
		c, target, n, pr.Tick, pr.Records)
	return fol, nil
}

// migrate moves the run to a standby mid-run through a scripted live
// migration, with mutations before and after the cutover.
func (h *harness) migrate(mutSrc *dist.Source) error {
	pri, err := h.spawn(0, h.runArgs("wal_0.wal")...)
	if err != nil {
		return err
	}
	fol, err := h.follow(1, pri.base)
	if err != nil {
		return err
	}
	// Mutate the source before the move so the cutover carries a
	// non-trivial journal.
	if err := h.injectAt(pri, h.ticks/4, 3, mutSrc); err != nil {
		return err
	}
	rep, err := server.RunMigration(h.ctx, server.MigrationOptions{Source: pri.base, Target: fol.base, Client: h.client})
	if err != nil {
		return err
	}
	h.frags[0].end = rep.HandoffTick
	fmt.Printf("migrated at tick %d (%d records) in %s\n", rep.HandoffTick, rep.HandoffRecords, rep.Elapsed.Round(time.Millisecond))
	// The frozen source drains gracefully; its event file is final.
	if err := pri.stop(); err != nil {
		return fmt.Errorf("source after handoff: %w", err)
	}
	// The moved run must keep accepting (and making durable) mutations.
	if err := h.injectAt(fol, rep.HandoffTick+h.ticks/10, 2, mutSrc); err != nil {
		return err
	}
	return h.finish(fol, "live migration")
}

// spawn starts incarnation inc of willowd with the common flags plus
// extra, registers its event file as the newest fragment, and waits for
// its API.
func (h *harness) spawn(inc int, extra ...string) (*proc, error) {
	portFile := filepath.Join(h.dir, fmt.Sprintf("port_%d", inc))
	events := filepath.Join(h.dir, fmt.Sprintf("events_%d.jsonl", inc))
	args := append([]string{
		"-addr", "127.0.0.1:0",
		"-port-file", portFile,
		"-tick", h.tick.String(),
		"-events", events,
	}, extra...)
	cmd := exec.Command(h.willowd, args...)
	cmd.Stdout = os.Stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting willowd %d: %w", inc, err)
	}
	p := &proc{cmd: cmd, exited: make(chan struct{})}
	go func() {
		cmd.Wait()
		close(p.exited)
	}()
	h.procs = append(h.procs, p)
	h.frags = append(h.frags, frag{path: events, end: -1})
	err := h.poll(p, "serving", func() bool {
		b, err := os.ReadFile(portFile)
		if err != nil || len(bytes.TrimSpace(b)) == 0 {
			return false
		}
		p.base = "http://" + strings.TrimSpace(string(b))
		_, err = h.call(http.MethodGet, p.base+"/healthz", nil, nil)
		return err == nil
	})
	if err != nil {
		return nil, fmt.Errorf("incarnation %d: %w", inc, err)
	}
	return p, nil
}

// poll re-checks ready once per tick until it holds, failing as soon as
// the deadline passes or p exits, naming what it awaited.
func (h *harness) poll(p *proc, what string, ready func() bool) error {
	for !ready() {
		select {
		case <-h.ctx.Done():
			return fmt.Errorf("awaiting %s: %w", what, h.ctx.Err())
		case <-p.exited:
			return fmt.Errorf("willowd exited before %s (%s)", what, p.cmd.ProcessState)
		case <-time.After(h.tick):
		}
	}
	return nil
}

// await polls p's /healthz until ok holds.
func (h *harness) await(p *proc, what string, ok func(server.HealthView) bool) error {
	return h.poll(p, what, func() bool {
		var hv server.HealthView
		_, err := h.call(http.MethodGet, p.base+"/healthz", nil, &hv)
		return err == nil && ok(hv)
	})
}

// burst waits for p to reach target, then injects a seeded burst of one
// to three mutations. It returns the burst size.
func (h *harness) burst(p *proc, target int, mutSrc *dist.Source) (int, error) {
	n := 1 + int(mutSrc.Uint64()%3)
	return n, h.injectAt(p, target, n, mutSrc)
}

// injectAt waits for p to reach tick target, then injects n seeded
// mutations, awaiting every ack.
func (h *harness) injectAt(p *proc, target, n int, mutSrc *dist.Source) error {
	if err := h.await(p, fmt.Sprintf("tick %d", target), func(hv server.HealthView) bool { return hv.Tick >= target }); err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		if err := h.inject(p, mutSrc); err != nil {
			return err
		}
	}
	return nil
}

// inject POSTs one seeded mutation to p — mostly mean-neutral demand
// scales, with an occasional live chaos injection — and records the ack.
func (h *harness) inject(p *proc, mutSrc *dist.Source) error {
	var (
		m    server.Mutation
		path string
		body map[string]any
	)
	if roll := mutSrc.Uint64() % 10; roll == 0 {
		m = server.Mutation{Kind: "chaos", Spec: "light", Seed: mutSrc.Uint64() | 1} // nonzero: no derived-seed ambiguity
		path, body = "/v1/chaos", map[string]any{"spec": m.Spec, "seed": m.Seed}
	} else {
		m = server.Mutation{Kind: "demand", Server: -1}
		if roll%2 == 1 {
			m.Server = int(mutSrc.Uint64() % 18)
		}
		m.Factor = 0.9 + 0.2*float64(mutSrc.Uint64()%1000)/1000.0
		path, body = "/v1/demand", map[string]any{"server": m.Server, "factor": m.Factor}
	}
	var resp struct {
		Tick int `json:"tick"`
	}
	if _, err := h.call(http.MethodPost, p.base+path, body, &resp); err != nil {
		return err
	}
	m.Tick = resp.Tick
	h.acked = append(h.acked, m)
	return nil
}

// finish lets the surviving incarnation p complete the run, captures its
// final state over the API, stops it gracefully, and verifies all four
// byte-identity claims against the uninterrupted-run oracle.
func (h *harness) finish(p *proc, what string) error {
	if err := h.await(p, "run completion", func(hv server.HealthView) bool { return hv.Done }); err != nil {
		return err
	}
	stateRaw, err := h.call(http.MethodGet, p.base+"/v1/state", nil, nil)
	if err != nil {
		return err
	}
	var stats server.StatsView
	if _, err := h.call(http.MethodGet, p.base+"/v1/stats", nil, &stats); err != nil {
		return err
	}
	snapRaw, err := h.call(http.MethodPost, p.base+"/v1/snapshot", nil, nil)
	if err != nil {
		return err
	}
	snap, err := server.DecodeSnapshot(bytes.NewReader(snapRaw))
	if err != nil {
		return fmt.Errorf("POST /v1/snapshot: %w", err)
	}
	if err := p.stop(); err != nil {
		return fmt.Errorf("final incarnation: %w", err)
	}

	// Check 1: the journal is exactly the acknowledged mutations — every
	// ack survived, and nothing was invented.
	if len(snap.Journal) != len(h.acked) {
		return fmt.Errorf("journal has %d mutations, harness acked %d", len(snap.Journal), len(h.acked))
	}
	chaos := 0
	for i, m := range h.acked {
		if !reflect.DeepEqual(snap.Journal[i], m) {
			return fmt.Errorf("journal entry %d = %+v, acked %+v", i, snap.Journal[i], m)
		}
		if m.Kind == "chaos" {
			chaos++
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
	oracleState, err := json.Marshal(oracle.State())
	if err != nil {
		return err
	}
	if !bytes.Equal(bytes.TrimSpace(stateRaw), bytes.TrimSpace(oracleState)) {
		return fmt.Errorf("final /v1/state differs from uninterrupted replay:\n--- harness ---\n%s\n--- oracle ---\n%s",
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
		return fmt.Errorf("final /v1/stats differs from uninterrupted replay:\nharness: %+v\noracle:  %+v", stats, oracleStats)
	}

	// Check 4: the assembled event stream is byte-identical.
	assembled, lines, err := assemble(h.frags)
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

	fmt.Printf("willow-crash OK: %s, %d mutations acked (%d chaos), state+stats+journal identical, %d events byte-identical\n",
		what, len(h.acked), chaos, lines)
	return nil
}

// assemble stitches per-incarnation event files into the single stream
// an uninterrupted run would have written. Fragment i contributes the
// events before its successor's resume boundary — later ticks were
// re-executed and republished there — and the final fragment
// contributes everything. A SIGKILL can tear the last line of a
// fragment (the flush contract only covers completed ticks), so an
// unterminated tail line of a killed incarnation is dropped; every
// contributed line must parse. It returns the stream and its line count.
func assemble(frags []frag) ([]byte, int, error) {
	var out []byte
	lines := 0
	for i, fr := range frags {
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
			ev, err := telemetry.Decode(line[:nl])
			if err != nil {
				return nil, 0, fmt.Errorf("fragment %d (%s): bad event line: %w", i, fr.path, err)
			}
			if fr.end >= 0 && ev.Tick >= fr.end {
				break // re-executed after the boundary; the successor owns it
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
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			lo := max(i-80, 0)
			return fmt.Sprintf("first divergence at byte %d: ...%q vs ...%q", i, a[lo:i+1], b[lo:i+1])
		}
	}
	return fmt.Sprintf("one stream is a prefix of the other (at byte %d)", n)
}

// call issues one API request, JSON-encoding body when non-nil and
// decoding a 200 response into dst when non-nil. It returns the raw
// response body.
func (h *harness) call(method, url string, body, dst any) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return nil, err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(h.ctx, method, url, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
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
		return nil, fmt.Errorf("%s %s: %s: %s", method, req.URL.Path, resp.Status, bytes.TrimSpace(data))
	}
	if dst != nil {
		if err := json.Unmarshal(data, dst); err != nil {
			return nil, fmt.Errorf("%s %s: %w", method, req.URL.Path, err)
		}
	}
	return data, nil
}
