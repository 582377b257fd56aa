package server

// Hot-standby follower: the consumer side of /v1/replicate. A follower
// decodes the stream with the journal reader every WAL and snapshot
// goes through (wal.go), makes every mutation durable in its OWN WAL
// before advancing its cursor (so the standby's durability guarantee is
// exactly the primary's, and its WAL the same bytes), and tracks how far
// behind it is in both records and ticks. Promotion — manual via POST
// /v1/promote or automatic after a configurable heartbeat-loss window —
// replays the follower's journal through the crash-recovery Restore
// path and hands back a live Daemon resting at the primary's last
// proven boundary; the deterministic replay contract makes the promoted
// run byte-identical to the primary's, which is the whole point.
//
// The tail loop is built for bad networks: every connection attempt has
// a jittered exponential backoff, an idle watchdog tears down streams
// that have gone silent (a half-open TCP connection must not postpone
// failover detection forever), and reconnects resume from the durable
// cursor (?from=) so nothing is re-fetched and nothing can be skipped.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math/rand"
	"net/http"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"time"

	"willow/internal/obs"
)

// Follower defaults: aggressive enough for sub-second failover in the
// harness, conservative enough not to flap on a loaded box.
const (
	DefaultFollowBackoff     = 100 * time.Millisecond
	DefaultFollowBackoffMax  = 2 * time.Second
	DefaultFollowIdleTimeout = 2 * time.Second
)

// FollowerOptions configures a hot standby.
type FollowerOptions struct {
	// Primary is the base URL of the daemon to follow.
	Primary string
	// WALPath, when set, is where the follower makes replicated records
	// durable before advancing its cursor (created from the primary's
	// spec record; reopened to resume if it already exists). Empty keeps
	// the journal in memory only — fine for tests, not for a real
	// standby.
	WALPath string
	// PromoteAfter, when positive, arms automatic promotion: once the
	// follower has a spec and hears nothing from the primary for this
	// long, it promotes itself.
	PromoteAfter time.Duration
	// Backoff is the base reconnect delay, doubled per consecutive
	// failure up to BackoffMax, jittered ±50%.
	Backoff    time.Duration
	BackoffMax time.Duration
	// IdleTimeout tears down a stream that has delivered nothing for
	// this long (heartbeats arrive every tick, so a healthy link is
	// never idle).
	IdleTimeout time.Duration
	// Client issues the replication requests (default http.DefaultClient
	// with no overall timeout — the stream is long-lived by design).
	Client *http.Client
	// Seed drives the backoff jitter, so chaos harnesses replay exactly.
	Seed uint64
}

func (o *FollowerOptions) defaults() {
	if o.Backoff <= 0 {
		o.Backoff = DefaultFollowBackoff
	}
	if o.BackoffMax <= 0 {
		o.BackoffMax = DefaultFollowBackoffMax
	}
	if o.IdleTimeout <= 0 {
		o.IdleTimeout = DefaultFollowIdleTimeout
	}
	if o.Client == nil {
		o.Client = http.DefaultClient
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
}

// errFollowerFatal marks conditions retrying cannot fix (WAL append
// failure, spec mismatch, a stream in another journal format or with a
// spec this binary cannot decode); Run stops instead of spinning on
// them.
var errFollowerFatal = errors.New("follower: fatal")

// Follower is a hot standby tailing one primary. Create with
// NewFollower, drive with Run, promote with Promote (or let
// PromoteAfter do it); serve its /healthz + /metrics + /v1/promote via
// NewFollowerHandler.
type Follower struct {
	opts FollowerOptions

	mu       sync.Mutex
	spec     Spec
	haveSpec bool
	muts     []Mutation // durable (or accepted, when WALPath is empty) records
	wal      *WAL

	// resumeTick is the furthest boundary provably safe to promote at:
	// the max over replicated mutation ticks and heartbeat ticks whose
	// announced record count we hold durably.
	resumeTick int
	// Last-heard primary state, for lag and health.
	primaryTick    int
	primaryRecords int
	primaryFrozen  bool
	primaryDone    bool

	connected   bool
	everConnect bool
	lastContact time.Time
	reconnects  int64
	cancelTail  context.CancelFunc

	promoted   *Daemon
	promotedCh chan struct{}

	rng *rand.Rand

	reg         *obs.Registry
	lagRecordsG *obs.Gauge
	lagTicksG   *obs.Gauge
	recordsG    *obs.Gauge
	resumeG     *obs.Gauge
	connectedG  *obs.Gauge
	reconnectsC *obs.Counter
}

// NewFollower builds a follower. If opts.WALPath names an existing WAL
// (a follower restart), its spec and records are loaded so tailing
// resumes from the durable cursor instead of record zero.
func NewFollower(opts FollowerOptions) (*Follower, error) {
	opts.defaults()
	if opts.Primary == "" {
		return nil, errors.New("follower: no primary URL")
	}
	reg := obs.NewRegistry()
	f := &Follower{
		opts:       opts,
		promotedCh: make(chan struct{}),
		rng:        rand.New(rand.NewSource(int64(opts.Seed))),
		reg:        reg,
		lagRecordsG: reg.Gauge("willow_replication_lag_records",
			"journal records the primary has announced but this follower has not made durable"),
		lagTicksG: reg.Gauge("willow_replication_lag_ticks",
			"ticks between the primary's last-heard boundary and this follower's resume boundary"),
		recordsG: reg.Gauge("willow_replication_records",
			"replicated journal records held durably by this follower"),
		resumeG: reg.Gauge("willow_replication_resume_tick",
			"tick boundary a promotion would resume at"),
		connectedG: reg.Gauge("willow_replication_connected",
			"1 while a /v1/replicate stream to the primary is live"),
		reconnectsC: reg.Counter("willow_replication_reconnects_total",
			"replication stream re-establishes after the first connect"),
	}
	if opts.WALPath != "" {
		switch wal, st, err := OpenWAL(opts.WALPath); {
		case errors.Is(err, fs.ErrNotExist):
			// A fresh standby: the spec record creates the WAL.
		case err != nil:
			return nil, fmt.Errorf("follower: reopening wal: %w", err)
		default:
			f.wal = wal
			f.spec, f.haveSpec = st.Spec, true
			f.muts = st.Mutations
			if n := len(st.Mutations); n > 0 {
				f.resumeTick = st.Mutations[n-1].Tick
			}
			f.recordsG.Set(float64(len(f.muts)))
			f.resumeG.Set(float64(f.resumeTick))
		}
	}
	return f, nil
}

// Run tails the primary until the context ends, the follower is
// promoted (returns nil — check Promoted), or a fatal condition stops
// replication (WAL divergence, spec mismatch). Transient failures —
// refused connections, mid-stream resets, idle streams — retry forever
// with jittered exponential backoff; when PromoteAfter is armed and the
// primary stays silent past the window, Run promotes and returns.
func (f *Follower) Run(ctx context.Context) error {
	attempt := 0
	for {
		if f.Promoted() != nil {
			return nil
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		err := f.tail(ctx)
		if f.Promoted() != nil {
			return nil
		}
		if errors.Is(err, errFollowerFatal) {
			return err
		}
		if err == nil || f.tookRecords() {
			attempt = 0 // the link worked; start backoff over
		} else {
			attempt++
		}
		if f.shouldAutoPromote() {
			if _, perr := f.Promote(); perr != nil {
				return fmt.Errorf("follower: auto-promote: %w", perr)
			}
			return nil
		}
		if err := f.sleep(ctx, attempt); err != nil {
			return err
		}
	}
}

// tookRecords reports whether the link has worked recently: the
// follower has connected at least once and heard from the primary
// within the idle timeout.
func (f *Follower) tookRecords() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.everConnect && time.Since(f.lastContact) < f.opts.IdleTimeout
}

// shouldAutoPromote checks the heartbeat-loss window: armed, spec
// known, and the primary silent past PromoteAfter.
func (f *Follower) shouldAutoPromote() bool {
	if f.opts.PromoteAfter <= 0 {
		return false
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.haveSpec && !f.lastContact.IsZero() &&
		time.Since(f.lastContact) >= f.opts.PromoteAfter
}

// sleep waits the jittered backoff for the given consecutive-failure
// count, returning early if the context ends or a promotion lands.
func (f *Follower) sleep(ctx context.Context, attempt int) error {
	delay := f.opts.Backoff << uint(min(attempt, 16))
	if delay > f.opts.BackoffMax || delay <= 0 {
		delay = f.opts.BackoffMax
	}
	// Jitter ±50%: simultaneous follower reconnects after a primary
	// restart must not arrive in lockstep.
	f.mu.Lock()
	jittered := delay/2 + time.Duration(f.rng.Int63n(int64(delay)/2+1))
	f.mu.Unlock()
	t := time.NewTimer(jittered)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-f.promotedCh:
		return nil
	case <-t.C:
		return nil
	}
}

// tail runs one replication stream: connect from the durable cursor,
// apply records until the stream breaks, the idle watchdog fires, or
// the context ends.
func (f *Follower) tail(ctx context.Context) error {
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()

	f.mu.Lock()
	from := len(f.muts)
	f.cancelTail = cancel
	f.mu.Unlock()

	url := strings.TrimRight(f.opts.Primary, "/") + "/v1/replicate?from=" + strconv.Itoa(from)
	req, err := http.NewRequestWithContext(cctx, http.MethodGet, url, nil)
	if err != nil {
		return fmt.Errorf("%w: %v", errFollowerFatal, err)
	}
	resp, err := f.opts.Client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("follower: primary replied %d: %s", resp.StatusCode, strings.TrimSpace(string(body)))
	}

	f.setConnected(true)
	defer f.setConnected(false)

	// Idle watchdog: heartbeats arrive every tick, so a silent stream is
	// a dead or half-open one — kill it and let the retry loop decide.
	watchdog := time.AfterFunc(f.opts.IdleTimeout, cancel)
	defer watchdog.Stop()

	_, err = decodeJournal(resp.Body, func(rec record) error {
		watchdog.Reset(f.opts.IdleTimeout)
		return f.apply(rec)
	})
	if cerr := cctx.Err(); cerr != nil {
		return cerr // cancelled: shutdown, promotion, or watchdog
	}
	if errors.Is(err, errSpecJSON) || errors.Is(err, errFormat) {
		// Another format, or a spec this binary cannot decode, will not
		// decode on retry.
		return fmt.Errorf("%w: %v", errFollowerFatal, err)
	}
	return err // nil when the primary drained; else a broken link
}

// setConnected flips the link gauge and counts re-establishes.
func (f *Follower) setConnected(up bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.connected = up
	f.connectedG.Set(b2f(up))
	if up {
		if f.everConnect {
			f.reconnects++
			f.reconnectsC.Inc()
		}
		f.everConnect = true
		f.lastContact = time.Now()
	}
}

// apply folds one replication record into the follower's durable state.
// The decoder has already checked that each stream opens with the spec
// and carries it once.
func (f *Follower) apply(rec record) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.lastContact = time.Now()

	switch rec.Type {
	case recSpec:
		if f.haveSpec {
			if !reflect.DeepEqual(*rec.Spec, f.spec) {
				// The primary is running a different run than the one we
				// replicated; appending its records to ours would corrupt
				// both histories.
				return fmt.Errorf("%w: primary's spec differs from the replicated run", errFollowerFatal)
			}
			return nil
		}
		f.spec, f.haveSpec = *rec.Spec, true
		if f.opts.WALPath != "" && f.wal == nil {
			wal, err := CreateWAL(f.opts.WALPath, f.spec, nil)
			if err != nil {
				return fmt.Errorf("%w: %v", errFollowerFatal, err)
			}
			f.wal = wal
		}
	case recMut:
		switch {
		case rec.Index < len(f.muts):
			// Duplicate from a resumed stream's backlog; already durable.
		case rec.Index > len(f.muts):
			// A hole. The server drops overflowing subscribers rather than
			// skipping records, so this should be unreachable — reconnect
			// from the durable cursor rather than fabricate history.
			return fmt.Errorf("follower: record gap: got index %d, have %d records", rec.Index, len(f.muts))
		default:
			if f.wal != nil {
				// Durability before cursor advance: the standby's promise is
				// exactly the primary's (fsync before ack). The WAL frames
				// the mutation at the same index, so its bytes are the
				// primary's.
				if err := f.wal.Append(*rec.Mut); err != nil {
					return fmt.Errorf("%w: wal append: %v", errFollowerFatal, err)
				}
			}
			f.muts = append(f.muts, *rec.Mut)
			f.resumeTick = max(f.resumeTick, rec.Mut.Tick)
		}
		f.primaryRecords = max(f.primaryRecords, rec.Index+1)
		f.primaryTick = max(f.primaryTick, rec.Mut.Tick)
	case recBoundary:
		f.primaryFrozen = rec.Frozen
		f.primaryDone = rec.Done
		// A boundary proves the primary completed every tick before
		// rec.Tick with rec.Records journal records. Only adopt it once we
		// hold all those records: promotion replays our journal, and a
		// boundary beyond our records would skip history.
		if rec.Records <= len(f.muts) {
			f.resumeTick = max(f.resumeTick, rec.Tick)
		}
		f.primaryTick = max(f.primaryTick, rec.Tick)
		f.primaryRecords = max(f.primaryRecords, rec.Records)
	}

	f.recordsG.Set(float64(len(f.muts)))
	f.resumeG.Set(float64(f.resumeTick))
	f.lagRecordsG.Set(float64(f.primaryRecords - len(f.muts)))
	f.lagTicksG.Set(float64(f.primaryTick - f.resumeTick))
	return nil
}

// Promote replays the follower's journal through the Restore path and
// returns a live Daemon resting at the resume boundary, with the
// follower's WAL attached so the promoted run keeps the durability
// contract without a WAL rewrite (the follower's WAL already holds the
// complete history from tick 0 — it IS the primary's WAL, byte for
// byte). Idempotent: later calls return the same daemon.
func (f *Follower) Promote() (*Daemon, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.promoted != nil {
		return f.promoted, nil
	}
	if !f.haveSpec {
		return nil, errors.New("follower: nothing replicated yet (no spec)")
	}
	d, err := Restore(Snapshot{Spec: f.spec, Tick: f.resumeTick, Journal: append([]Mutation(nil), f.muts...)})
	if err != nil {
		return nil, fmt.Errorf("follower: promoting at tick %d: %w", f.resumeTick, err)
	}
	if f.wal != nil {
		d.AttachWAL(f.wal)
	}
	f.promoted = d
	close(f.promotedCh)
	if f.cancelTail != nil {
		f.cancelTail() // stop tailing a primary we no longer follow
	}
	return d, nil
}

// Promoted returns the daemon created by Promote, or nil before it.
func (f *Follower) Promoted() *Daemon {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.promoted
}

// ResumeTick returns the boundary a promotion would currently start at.
func (f *Follower) ResumeTick() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.resumeTick
}

// Records returns the durable replicated record count.
func (f *Follower) Records() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.muts)
}

// Close releases the follower's WAL. After a promotion the WAL belongs
// to the promoted daemon's append path, so call Close only once that
// daemon has fully drained (appends are fsync-per-record; there is
// nothing to flush, but closing under a live daemon would turn its next
// mutation into a sticky WAL error).
func (f *Follower) Close() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.wal != nil {
		err := f.wal.Close()
		f.wal = nil
		return err
	}
	return nil
}

// WriteMetrics writes the follower's replication-lag exposition.
func (f *Follower) WriteMetrics(w io.Writer) error {
	return f.reg.WriteText(w)
}

// NewFollowerHandler serves a follower's observability and promotion
// surface while it is still a standby:
//
//	GET  /healthz     readiness: caught-up, lag, last contact
//	GET  /metrics     replication lag gauges
//	POST /v1/promote  promote now; returns {tick, records}
//
// Everything else answers 503 with the primary's URL, so a client that
// talks to the standby by mistake learns where the real daemon is.
// onPromote, when non-nil, runs once after a successful promotion
// (willowd uses it to swap this handler for the full primary surface).
func NewFollowerHandler(f *Follower, onPromote func(*Daemon)) http.Handler {
	var once sync.Once
	promote := func() (*Daemon, error) {
		d, err := f.Promote()
		if err == nil && onPromote != nil {
			once.Do(func() { onPromote(d) })
		}
		return d, err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, f.Health())
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		w.WriteHeader(http.StatusOK)
		_ = f.WriteMetrics(w)
	})
	mux.HandleFunc("POST /v1/promote", func(w http.ResponseWriter, r *http.Request) {
		d, err := promote()
		if err != nil {
			writeError(w, http.StatusConflict, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{
			"tick":    d.NextTick(),
			"records": len(d.Snapshot().Journal),
		})
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		writeError(w, http.StatusServiceUnavailable,
			fmt.Errorf("standby follower: not primary (following %s)", f.opts.Primary))
	})
	return mux
}

// SwitchHandler swaps one http.Handler for another — the
// follower→primary transition without restarting the listener.
type SwitchHandler struct {
	mu sync.RWMutex
	h  http.Handler
}

// NewSwitchHandler starts with h.
func NewSwitchHandler(h http.Handler) *SwitchHandler { return &SwitchHandler{h: h} }

// Set replaces the active handler; in-flight requests finish on the old
// one.
func (s *SwitchHandler) Set(h http.Handler) {
	s.mu.Lock()
	s.h = h
	s.mu.Unlock()
}

// ServeHTTP serves r on the active handler.
func (s *SwitchHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	h := s.h
	s.mu.RUnlock()
	h.ServeHTTP(w, r)
}
