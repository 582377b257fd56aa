package server

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"willow/internal/chaos"
	"willow/internal/cluster"
	"willow/internal/core"
	"willow/internal/telemetry"
)

// Mutation is one live change accepted over the API, journaled so a
// snapshot can replay it. Tick is the boundary it landed on (the
// machine's NextTick at acceptance); replay applies it at exactly that
// boundary, which reproduces the run bit for bit.
type Mutation struct {
	Tick int    `json:"tick"`
	Kind string `json:"kind"` // "demand" or "chaos"

	// demand: scale the apps on Server (-1 = fleet) by Factor.
	Server int     `json:"server,omitempty"`
	Factor float64 `json:"factor,omitempty"`

	// chaos: expand Spec (chaos.ParseSpec syntax) with Seed over the
	// remaining horizon.
	Spec string `json:"spec,omitempty"`
	Seed uint64 `json:"seed,omitempty"`
}

// Snapshot is the daemon's complete state: the build spec, the tick
// reached, and every mutation accepted along the way. Restoring replays
// the journal against a freshly built machine — event-sourced, so no
// controller internals ever hit the wire and the restored state is
// identical by construction. On disk and over POST /v1/snapshot it is a
// journal (wal.go): the records a WAL of the same history holds, then
// one boundary record at Tick.
type Snapshot struct {
	Spec    Spec
	Tick    int
	Journal []Mutation
}

// encode returns the snapshot's journal bytes.
func (s Snapshot) encode() ([]byte, error) {
	buf, err := encodeJournal(s.Spec, 0, s.Journal)
	if err != nil {
		return nil, err
	}
	return appendFrame(buf, record{Type: recBoundary, boundary: boundary{Tick: s.Tick, Records: len(s.Journal)}})
}

// WriteFile atomically and durably writes the snapshot: encode it, write
// a temp file, fsync it, rename it over the target, then fsync the
// parent directory. Encoding comes first, so a snapshot that cannot be
// encoded creates no file. Without the two fsyncs the rename gives only
// atomicity against process death — a power cut could surface the
// renamed entry pointing at unwritten blocks, which is exactly the
// acknowledged-but-lost state a snapshot exists to prevent.
func (s Snapshot) WriteFile(path string) error {
	data, err := s.encode()
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err = f.Write(data); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	return syncDir(filepath.Dir(path))
}

// ReadSnapshot loads a snapshot written by WriteFile.
func ReadSnapshot(path string) (Snapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return Snapshot{}, err
	}
	defer f.Close()
	snap, err := DecodeSnapshot(bufio.NewReader(f))
	if err != nil {
		return Snapshot{}, fmt.Errorf("server: snapshot %s: %w", path, err)
	}
	return snap, nil
}

// DecodeSnapshot reads a snapshot from r: the bytes WriteFile writes and
// POST /v1/snapshot returns. A torn record is an error here.
func DecodeSnapshot(r io.Reader) (Snapshot, error) {
	snap, _, err := readHistory(r, true)
	return snap, err
}

// Daemon is a live Willow run: one cluster.Machine advanced by a
// single driver (Run or Step), mutated and inspected by any number of
// concurrent API handlers. One mutex serializes everything that
// touches the machine, so every mutation lands at a tick boundary and
// every read sees a consistent between-ticks state. Telemetry leaves
// the lock through a lossy Hub (bounded, non-blocking) and optionally
// through a lossless caller sink (SetSink).
type Daemon struct {
	mu      sync.Mutex
	spec    Spec
	m       *cluster.Machine
	journal []Mutation
	sink    telemetry.Sink        // lossless, publishes under mu; may be nil
	hub     *Hub[telemetry.Event] // lossy: a full subscriber misses events
	metrics *daemonMetrics
	started time.Time

	// rep streams durable journal records and tick heartbeats to
	// /v1/replicate subscribers (hot standbys); see replication.go. It
	// is lossless: a follower that overflows is disconnected.
	rep *Hub[record]
	// frozen marks a migration handoff: the tick loop steps no further
	// and mutations are refused, so the journal is final (Freeze).
	frozen bool
	// resumedAt is the tick boundary this incarnation started from (0
	// for a fresh daemon, the snapshot tick after Restore/promotion) —
	// surfaced in /healthz so failover harnesses know the event-stream
	// ownership boundary.
	resumedAt int
	// history retains the most recent hub events so a reconnecting
	// subscriber can resume with GET /v1/events?from=<tick>.
	history eventRing

	// wal, when attached, makes every accepted mutation durable before
	// the API acknowledges it. walErr is sticky: once an append fails,
	// the in-memory machine is ahead of the durable journal, so further
	// mutations are refused rather than widening the divergence.
	wal    *WAL
	walErr error
}

// eventRing is a fixed ring of the last eventHistory hub events, for
// ?from= stream resumption. Guarded by the daemon's tick lock; the
// buffer is pre-allocated so the publish hot path never allocates.
type eventRing struct {
	buf []telemetry.Event
	n   int // lifetime count; buf[(n-1)%len(buf)] is the newest entry
}

// eventHistory is how many recent events the daemon retains for
// ?from= resumption — best effort by design: a subscriber further
// behind than the ring gets the oldest retained tick onward.
const eventHistory = 8192

func (r *eventRing) add(e telemetry.Event) {
	r.buf[r.n%len(r.buf)] = e
	r.n++
}

// tail returns the retained events with Tick >= from, oldest first.
func (r *eventRing) tail(from int) []telemetry.Event {
	first := 0
	if r.n > len(r.buf) {
		first = r.n - len(r.buf)
	}
	var out []telemetry.Event
	for i := first; i < r.n; i++ {
		if e := r.buf[i%len(r.buf)]; e.Tick >= from {
			out = append(out, e)
		}
	}
	return out
}

// New builds a daemon from a spec, at tick 0 with an empty journal.
func New(spec Spec) (*Daemon, error) {
	cfg, err := spec.Build()
	if err != nil {
		return nil, err
	}
	m, err := cluster.NewMachine(cfg)
	if err != nil {
		return nil, err
	}
	return newDaemon(spec, m, nil), nil
}

// newDaemon wraps a machine (fresh or replayed) into a daemon with its
// hub, metrics, and telemetry plumbing attached.
func newDaemon(spec Spec, m *cluster.Machine, journal []Mutation) *Daemon {
	d := &Daemon{
		spec: spec, m: m, journal: journal,
		hub: newHub[telemetry.Event](false), rep: newHub[record](true),
		metrics: newDaemonMetrics(),
		history: eventRing{buf: make([]telemetry.Event, eventHistory)},
		started: time.Now(),
	}
	m.SetSink(telemetry.SinkFunc(d.publish))
	// Phase timing starts now: any replay that built m is warm-up work
	// the wall-clock histograms should not pollute.
	m.Controller().Phases = d.metrics
	return d
}

// AttachWAL makes every subsequently accepted mutation durable: the
// daemon appends and fsyncs it to w before the mutating call returns.
// The WAL must already contain the daemon's current journal (Recover
// guarantees this; a fresh daemon has an empty journal and CreateWAL
// writes an empty one). The daemon does not close the WAL; the caller
// owns its lifecycle.
func (d *Daemon) AttachWAL(w *WAL) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.wal = w
}

// Restore rebuilds a daemon from a snapshot: a fresh machine from the
// spec, fast-forwarded to the snapshot tick with every journaled
// mutation replayed at its original boundary. Telemetry is silenced
// during replay (those events were already published by the previous
// incarnation); the hub and sink see only post-restore ticks.
func Restore(snap Snapshot) (*Daemon, error) {
	m, err := replayMachine(snap, nil)
	if err != nil {
		return nil, err
	}
	d := newDaemon(snap.Spec, m, append([]Mutation(nil), snap.Journal...))
	d.resumedAt = snap.Tick
	return d, nil
}

// replayMachine checks what Restore and Replay both depend on — a spec
// that builds, the tick within the run, journal ticks in order and none
// beyond it — then builds a fresh machine and fast-forwards it to
// snap.Tick, applying each journaled mutation at its original boundary.
// A nil sink replays silently (Restore: a live predecessor already
// published those events); a non-nil sink receives the replayed stream
// (Replay: the uninterrupted-run oracle).
func replayMachine(snap Snapshot, sink telemetry.Sink) (*cluster.Machine, error) {
	cfg, err := snap.Spec.Build()
	if err != nil {
		return nil, err
	}
	if snap.Tick < 0 || snap.Tick > cfg.Ticks {
		return nil, fmt.Errorf("server: snapshot tick %d outside [0, %d]", snap.Tick, cfg.Ticks)
	}
	prev := 0
	for i, mut := range snap.Journal {
		if mut.Tick < prev || mut.Tick > snap.Tick {
			return nil, fmt.Errorf("server: journal entry %d at tick %d breaks ordering (previous %d, boundary %d) — not an append-only history",
				i, mut.Tick, prev, snap.Tick)
		}
		prev = mut.Tick
	}
	m, err := cluster.NewMachine(cfg)
	if err != nil {
		return nil, err
	}
	if sink != nil {
		m.SetSink(sink)
	}
	ji := 0
	replay := func() error {
		for ji < len(snap.Journal) && snap.Journal[ji].Tick == m.NextTick() {
			if err := applyMutation(m, snap.Journal[ji]); err != nil {
				return fmt.Errorf("server: replaying journal entry %d: %w", ji, err)
			}
			ji++
		}
		return nil
	}
	for m.NextTick() < snap.Tick {
		if err := replay(); err != nil {
			return nil, err
		}
		m.Step()
	}
	// Mutations accepted at the snapshot boundary itself land before
	// the next tick runs, exactly as they did live. Ordering was checked
	// above, so every entry has landed by now.
	if err := replay(); err != nil {
		return nil, err
	}
	return m, nil
}

// publish is the machine's telemetry sink: lossless caller sink first
// (same order FileSink sees offline), then the lossy hub. Always
// called with d.mu held, because the machine only publishes inside
// Step.
func (d *Daemon) publish(e telemetry.Event) {
	if d.sink != nil {
		d.sink.Publish(e)
	}
	d.history.add(e)
	start := time.Now()
	d.hub.Publish(e)
	d.metrics.publish.Observe(time.Since(start).Seconds())
}

// SetSink attaches a lossless telemetry sink (e.g. a FileSink). It
// receives every event from the next tick on, published under the
// tick lock in exact decision order. Pass nil to detach.
func (d *Daemon) SetSink(s telemetry.Sink) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.sink = s
}

// Hub returns the daemon's lossy fan-out hub for event subscriptions.
func (d *Daemon) Hub() *Hub[telemetry.Event] { return d.hub }

// Spec returns the build spec.
func (d *Daemon) Spec() Spec { return d.spec }

// NextTick is the tick boundary the daemon currently rests at.
func (d *Daemon) NextTick() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.m.NextTick()
}

// Step advances one tick and reports whether the run is now done. On a
// frozen (handed-off) daemon it is a no-op: the handoff response named
// a final boundary and no tick may run beyond it.
func (d *Daemon) Step() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.frozen {
		return d.m.Done()
	}
	d.m.Step()
	d.afterTick()
	return d.m.Done()
}

// StepN advances up to n ticks (stopping early at run completion).
func (d *Daemon) StepN(n int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for i := 0; i < n && !d.m.Done() && !d.frozen; i++ {
		d.m.Step()
		d.afterTick()
	}
}

// afterTick records the per-tick observability sample (the efficiency
// ring's cumulative energy reading). Called with d.mu held after every
// Step.
func (d *Daemon) afterTick() {
	d.metrics.push(d.m.NextTick(), d.m.Controller().EnergyTotals())
	// With a WAL attached, the crash contract extends to the event
	// stream: hand the lossless sink's userspace buffers to the kernel
	// at every tick boundary, so a kill -9 loses at most the tick in
	// flight (already-written bytes survive process death; surviving
	// power loss is the snapshot's and WAL's job, not the stream's).
	if d.wal != nil {
		if f, ok := d.sink.(interface{ Flush() error }); ok {
			_ = f.Flush()
		}
	}
	// Replication heartbeat, strictly after the stream flush: a
	// follower that heard "tick T" may assume the primary's event file
	// holds every completed tick before T, which is what makes the
	// promoted follower's event stream splice byte-exact.
	d.rep.Publish(record{Type: recBoundary, boundary: d.boundary()})
}

// boundary is the tick boundary the daemon rests at. Called with d.mu
// held.
func (d *Daemon) boundary() boundary {
	return boundary{Tick: d.m.NextTick(), Records: len(d.journal), Done: d.m.Done(), Frozen: d.frozen}
}

// Run drives the machine to completion: one tick per tickEvery of wall
// clock, or flat out when tickEvery <= 0 (fast-forward — byte-identical
// to the offline simulator). It returns nil when the configured ticks
// have all run, or the context error if cancelled first; either way the
// machine rests at a clean tick boundary, so a final snapshot is always
// consistent. Only one Run (or Step/StepN caller) may drive a daemon at
// a time.
func (d *Daemon) Run(ctx context.Context, tickEvery time.Duration) error {
	if tickEvery <= 0 {
		for {
			if err := ctx.Err(); err != nil {
				return err
			}
			if d.Frozen() {
				// Handed off: hold the boundary and serve until shutdown.
				<-ctx.Done()
				return ctx.Err()
			}
			if d.Step() {
				return nil
			}
		}
	}
	tk := time.NewTicker(tickEvery)
	defer tk.Stop()
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-tk.C:
			if d.Frozen() {
				<-ctx.Done()
				return ctx.Err()
			}
			if d.Step() {
				return nil
			}
		}
	}
}

// ScaleDemand multiplies the mean demand of every application on the
// given server (-1 = whole fleet) by factor, journaling the mutation.
// It lands at the current tick boundary. With a WAL attached, the
// mutation is durable before the call returns.
func (d *Daemon) ScaleDemand(server int, factor float64) (tick int, err error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.walHealthy(); err != nil {
		return 0, err
	}
	if err := d.m.ScaleDemand(server, factor); err != nil {
		return 0, err
	}
	tick = d.m.NextTick()
	if err := d.journalMutation(Mutation{Tick: tick, Kind: "demand", Server: server, Factor: factor}); err != nil {
		return 0, err
	}
	return tick, nil
}

// walHealthy reports the sticky WAL failure, if any: after a failed
// append the in-memory run is ahead of the durable journal, and the
// only honest move is to refuse further mutations (reads and ticking
// continue — the divergence never widens). A frozen (handed-off)
// daemon refuses for a different reason: the handoff promised the
// journal was final.
func (d *Daemon) walHealthy() error {
	if d.frozen {
		return fmt.Errorf("server: mutations disabled, run handed off at tick %d", d.m.NextTick())
	}
	if d.walErr != nil {
		return fmt.Errorf("server: mutations disabled, wal diverged: %w", d.walErr)
	}
	return nil
}

// journalMutation records an accepted mutation in the in-memory journal
// and, when a WAL is attached, makes it durable before returning. The
// in-memory append happens regardless of WAL failure — the machine has
// already mutated, and a later graceful snapshot must describe the
// state the machine is actually in.
func (d *Daemon) journalMutation(mut Mutation) error {
	d.journal = append(d.journal, mut)
	if d.wal != nil {
		start := time.Now()
		err := d.wal.Append(mut)
		d.metrics.walAppend.Observe(time.Since(start).Seconds())
		if err != nil {
			d.walErr = err
			d.metrics.walErrors.Inc()
			return fmt.Errorf("server: mutation applied but not durable: %w", err)
		}
	}
	// Replicate only after the mutation is durable (or durability is not
	// armed): a follower must never hold a record the primary could
	// still lose.
	d.rep.Publish(record{Type: recMut, Index: len(d.journal) - 1, Mut: &mut})
	return nil
}

// InjectChaos expands a chaos spec over the remaining horizon with the
// given seed and schedules it from the current tick boundary,
// journaling the mutation. Seed 0 derives from the run seed, resolved
// before journaling so replay needs no convention.
func (d *Daemon) InjectChaos(spec string, seed uint64) (chaos.Plan, int, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.walHealthy(); err != nil {
		return chaos.Plan{}, 0, err
	}
	if seed == 0 {
		seed = d.spec.Seed
	}
	plan, err := injectChaos(d.m, spec, seed)
	if err != nil {
		return chaos.Plan{}, 0, err
	}
	tick := d.m.NextTick()
	if err := d.journalMutation(Mutation{Tick: tick, Kind: "chaos", Spec: spec, Seed: seed}); err != nil {
		return chaos.Plan{}, 0, err
	}
	return plan, tick, nil
}

// injectChaos expands spec against the machine's remaining horizon and
// queues the plan at the machine's current boundary. Pure function
// of (machine tick, spec, seed), which is what makes the journal
// replayable.
func injectChaos(m *cluster.Machine, spec string, seed uint64) (chaos.Plan, error) {
	cfg := m.Config()
	tick := m.NextTick()
	horizon := cfg.Ticks - tick
	if horizon <= 0 {
		return chaos.Plan{}, fmt.Errorf("server: run complete, no horizon left for chaos")
	}
	plan, err := cluster.ExpandChaos(spec, cfg.Fanout, horizon, seed)
	if err != nil {
		return chaos.Plan{}, err
	}
	if err := m.InjectPlan(plan, tick); err != nil {
		return chaos.Plan{}, err
	}
	return plan, nil
}

func applyMutation(m *cluster.Machine, mut Mutation) error {
	switch mut.Kind {
	case "demand":
		return m.ScaleDemand(mut.Server, mut.Factor)
	case "chaos":
		_, err := injectChaos(m, mut.Spec, mut.Seed)
		return err
	default:
		return fmt.Errorf("server: unknown mutation kind %q", mut.Kind)
	}
}

// Snapshot captures the daemon's state at the current tick boundary.
// Safe to call at any time; it waits for an in-flight tick to finish.
func (d *Daemon) Snapshot() Snapshot {
	d.mu.Lock()
	defer d.mu.Unlock()
	return Snapshot{Spec: d.spec, Tick: d.m.NextTick(), Journal: append([]Mutation(nil), d.journal...)}
}

// WriteSnapshot captures the current snapshot and writes it to path,
// timing the serialization + write into the wall-clock snapshot
// histogram (the /metrics willow_snapshot_write_seconds series).
func (d *Daemon) WriteSnapshot(path string) (Snapshot, error) {
	snap := d.Snapshot()
	start := time.Now()
	err := snap.WriteFile(path)
	d.metrics.snapshot.Observe(time.Since(start).Seconds())
	return snap, err
}

// Result computes the run's measurements so far (see cluster.Result).
func (d *Daemon) Result() *cluster.Result {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.m.Result()
}

// Close shuts the hub and replication feed down, terminating every
// event subscription and follower stream. Drain ordering matters: this
// must run before http.Server.Shutdown, or a connected follower or
// event subscriber would hold the drain open forever. The machine
// itself needs no teardown.
func (d *Daemon) Close() {
	d.hub.Close()
	d.rep.Close()
}

// SubscribeEvents registers a hub subscriber and, atomically with the
// subscription (under the tick lock, so no event can fall between),
// returns the buffered history from tick `from` on. The handler
// replays the history, then follows the live subscription — together a
// gapless, duplicate-free resume as long as `from` is within the
// retained window (eventHistory events, best effort beyond that).
func (d *Daemon) SubscribeEvents(from, buffer int) ([]telemetry.Event, *Subscription[telemetry.Event]) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.history.tail(from), d.hub.Subscribe(buffer)
}

// ServerState is one server's between-ticks control state.
type ServerState struct {
	Server int `json:"server"`
	// CP is smoothed reported demand, TP the granted budget, Consumed
	// the power actually drawn, Dropped the demand shed this tick.
	CP       float64 `json:"cp"`
	TP       float64 `json:"tp"`
	Consumed float64 `json:"consumed"`
	Dropped  float64 `json:"dropped,omitempty"`
	// Demand is the raw (pre-smoothing) offered demand.
	Demand float64 `json:"demand"`
	// Temp is the true physical temperature; TObs what the sensing path
	// reported to the controller (they diverge under sensor faults).
	Temp float64 `json:"temp"`
	TObs float64 `json:"tobs"`
	Apps int     `json:"apps"`
	// Asleep, Degraded (expired budget lease), Failed (crashed).
	Asleep   bool `json:"asleep,omitempty"`
	Degraded bool `json:"degraded,omitempty"`
	Failed   bool `json:"failed,omitempty"`
}

// State is the /v1/state payload: the whole control hierarchy at the
// current tick boundary.
type State struct {
	Tick    int     `json:"tick"`
	Ticks   int     `json:"ticks"`
	Done    bool    `json:"done"`
	Servers int     `json:"num_servers"`
	Supply  float64 `json:"supply"`

	ServerStates []ServerState   `json:"servers"`
	PMUs         []core.NodeView `json:"pmus"`

	Degraded   int `json:"degraded"`
	FailedPMUs int `json:"failed_pmus"`
}

// State reads the full hierarchy state at the current tick boundary.
func (d *Daemon) State() State {
	d.mu.Lock()
	defer d.mu.Unlock()
	ctrl := d.m.Controller()
	tick := d.m.NextTick()
	st := State{
		Tick:       tick,
		Ticks:      d.m.Config().Ticks,
		Done:       d.m.Done(),
		Servers:    len(ctrl.Servers),
		Supply:     ctrl.Supply.At(tick / ctrl.Cfg.Eta1),
		PMUs:       ctrl.PMUViews(),
		Degraded:   ctrl.DegradedCount(),
		FailedPMUs: ctrl.FailedPMUCount(),
	}
	st.ServerStates = make([]ServerState, len(ctrl.Servers))
	for i, s := range ctrl.Servers {
		st.ServerStates[i] = ServerState{
			Server:   i,
			CP:       s.CP(),
			TP:       s.TP(),
			Consumed: s.Consumed(),
			Dropped:  s.Dropped(),
			Demand:   s.RawDemand(),
			Temp:     s.Thermal.T,
			TObs:     s.TObs(),
			Apps:     len(s.Apps.Apps),
			Asleep:   s.Asleep(),
			Degraded: s.Degraded(),
			Failed:   s.Failed(),
		}
	}
	return st
}

// StatsView is the /v1/stats payload: run counters without the
// unbounded per-migration log (a long-lived daemon would make that
// payload grow without limit).
type StatsView struct {
	Tick   int     `json:"tick"`
	Ticks  int     `json:"ticks"`
	Done   bool    `json:"done"`
	Uptime float64 `json:"uptime_seconds"`

	TotalEnergy      float64 `json:"total_energy"`
	DroppedWattTicks float64 `json:"dropped_watt_ticks"`
	MaxTemp          float64 `json:"max_temp"`
	MaxObsTemp       float64 `json:"max_obs_temp,omitempty"`
	LimitViolations  int     `json:"limit_violation_ticks"`

	DemandMigrations        int     `json:"demand_migrations"`
	ConsolidationMigrations int     `json:"consolidation_migrations"`
	LocalMigrations         int     `json:"local_migrations"`
	MigrationShare          float64 `json:"migration_share"`
	PingPongs               int     `json:"ping_pongs"`
	Wakes                   int     `json:"wakes"`

	Failures       int   `json:"failures,omitempty"`
	Repairs        int   `json:"repairs,omitempty"`
	Restarts       int   `json:"restarts,omitempty"`
	PMUFailures    int   `json:"pmu_failures,omitempty"`
	PMURepairs     int   `json:"pmu_repairs,omitempty"`
	LeaseExpiries  int   `json:"lease_expiries,omitempty"`
	DegradedTicks  int64 `json:"degraded_ticks,omitempty"`
	SensorFaults   int   `json:"sensor_faults,omitempty"`
	SensorRejected int   `json:"sensor_rejected,omitempty"`

	MeanStretch     float64 `json:"mean_stretch"`
	SLOMissFraction float64 `json:"slo_miss_fraction"`

	EventsPublished int64 `json:"events_published"`
	EventsDropped   int64 `json:"events_dropped"`
	Subscribers     int   `json:"subscribers"`
	JournalLen      int   `json:"journal_len"`

	// WalOK is false once a WAL append has failed (the sticky error that
	// disables mutations); WalError carries the failure text. A daemon
	// refusing mutations is thus visible on the API surface, not only in
	// logs.
	WalOK    bool   `json:"wal_ok"`
	WalError string `json:"wal_error,omitempty"`

	// SubscriberStats details each live subscriber's backpressure:
	// buffer capacity, current occupancy, and events dropped — the
	// per-stream view behind the aggregate EventsDropped.
	SubscriberStats []SubscriberStat `json:"subscriber_stats,omitempty"`
}

// Stats summarizes the run so far for /v1/stats.
func (d *Daemon) Stats() StatsView {
	d.mu.Lock()
	res := d.m.Result()
	tick := d.m.NextTick()
	ticks := d.m.Config().Ticks
	done := d.m.Done()
	journal := len(d.journal)
	started := d.started
	walErr := d.walErr
	d.mu.Unlock()

	published, dropped, subs := d.hub.Stats()
	return StatsView{
		Tick: tick, Ticks: ticks, Done: done,
		Uptime:           time.Since(started).Seconds(),
		TotalEnergy:      res.TotalEnergy,
		DroppedWattTicks: res.DroppedWattTicks,
		MaxTemp:          res.MaxTemp,
		MaxObsTemp:       res.MaxObsTemp,
		LimitViolations:  res.LimitViolationTicks,

		DemandMigrations:        res.DemandMigrations,
		ConsolidationMigrations: res.ConsolidationMigrations,
		LocalMigrations:         res.Stats.LocalMigrations,
		MigrationShare:          res.MigrationShare,
		PingPongs:               res.Stats.PingPongs,
		Wakes:                   res.Stats.Wakes,

		Failures: res.Stats.Failures, Repairs: res.Stats.Repairs, Restarts: res.Stats.Restarts,
		PMUFailures: res.Stats.PMUFailures, PMURepairs: res.Stats.PMURepairs,
		LeaseExpiries:  res.Stats.LeaseExpiries,
		DegradedTicks:  res.Stats.DegradedTicks,
		SensorFaults:   res.Stats.SensorFaults,
		SensorRejected: res.Stats.SensorRejected,

		MeanStretch:     res.MeanStretch,
		SLOMissFraction: res.SLOMissFraction,

		EventsPublished: published,
		EventsDropped:   dropped,
		Subscribers:     subs,
		JournalLen:      journal,
		SubscriberStats: d.hub.SubscriberStats(),

		WalOK:    walErr == nil,
		WalError: errText(walErr),
	}
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}
