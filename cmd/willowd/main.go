// Command willowd runs Willow as a live control-plane daemon: the
// simulated data center ticks under wall-clock pacing (or flat out
// with -ff) while an HTTP API serves state, accepts live demand and
// chaos injections, streams telemetry, and snapshots the run for
// restart continuity.
//
//	willowd -addr 127.0.0.1:8080 -tick 50ms
//	willowd -addr 127.0.0.1:0 -port-file /tmp/port -events run.jsonl
//	willowd -restore run.snap -ff             # resume a run to completion
//	willowd -follow http://primary:8080 -wal standby.wal -promote-after 3s
//
// With -follow, willowd boots as a hot standby: it tails the primary's
// /v1/replicate stream, makes every record durable in its own WAL, and
// serves a follower API (/healthz lag view, /metrics, POST /v1/promote)
// until promoted — manually, or automatically after -promote-after of
// primary silence — at which point it becomes a full primary resuming
// at exactly the primary's last proven tick boundary.
//
// The scenario flags (-util, -fanout, -supply, -chaos, ...) are
// server.Spec's, shared with willow-sim.
//
// SIGTERM/SIGINT drain gracefully: the tick loop stops at a boundary,
// open event streams terminate, sinks flush, and a final snapshot is
// written (-snapshot).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"willow/internal/server"
	"willow/internal/telemetry"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "willowd:", err)
		os.Exit(1)
	}
}

func run() error {
	spec := server.DefaultSpec()
	spec.RegisterFlags(flag.CommandLine)
	var (
		addr     = flag.String("addr", "127.0.0.1:8080", "HTTP listen address (host:port, port 0 for random; empty disables the API)")
		portFile = flag.String("port-file", "", "write the bound listen address to this file (for scripts with -addr :0)")
		tickDur  = flag.Duration("tick", 50*time.Millisecond, "wall-clock duration of one demand tick (ignored with -ff)")
		ff       = flag.Bool("ff", false, "fast-forward: run all ticks at full speed (byte-identical to willow-sim)")
		pprofOn  = flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/ on the API listener")

		events       = flag.String("events", "", "stream every event as JSONL to this file (plus a .summary.txt report)")
		eventsFilter = flag.String("events-filter", "", "comma-separated event kinds to keep in the -events file (default all)")
		snapshotPath = flag.String("snapshot", "", "write a final snapshot here on shutdown: the WAL's framed records (spec, mutations) plus a closing tick boundary")
		restorePath  = flag.String("restore", "", "boot from a snapshot written by -snapshot or POST /v1/snapshot instead of flags (spec comes from the snapshot)")

		walPath     = flag.String("wal", "", "write-ahead journal: fsync every mutation here before acknowledging; on restart, recover from it (plus -restore as the base snapshot)")
		maxInflight = flag.Int("max-inflight", server.DefaultMaxInflight, "admission gate: max concurrent mutations holding the tick path")
		maxQueue    = flag.Int("max-queue", server.DefaultMaxQueue, "admission gate: max mutations queued behind the in-flight ones; excess sheds with 429")

		follow       = flag.String("follow", "", "boot as a hot standby tailing this primary's /v1/replicate (spec comes from the primary; -wal is the standby's own journal)")
		promoteAfter = flag.Duration("promote-after", 0, "with -follow: promote automatically after this much primary silence (0 = manual POST /v1/promote only)")
	)
	flag.Parse()

	env := &runtimeEnv{
		addr: *addr, portFile: *portFile,
		events: *events, eventsFilter: *eventsFilter,
		snapshotPath: *snapshotPath,
		tickDur:      *tickDur, ff: *ff,
		maxInflight: *maxInflight, maxQueue: *maxQueue,
		pprofOn: *pprofOn,
	}

	if *follow != "" {
		return runFollower(env, server.FollowerOptions{
			Primary:      *follow,
			WALPath:      *walPath,
			PromoteAfter: *promoteAfter,
			Seed:         spec.Seed,
		})
	}

	var (
		d   *server.Daemon
		wal *server.WAL
		err error
	)
	walExists := false
	if *walPath != "" {
		if _, serr := os.Stat(*walPath); serr == nil {
			walExists = true
		} else if !os.IsNotExist(serr) {
			return serr
		}
	}
	switch {
	case walExists:
		// Crash (or restart) recovery: the WAL is authoritative for the
		// spec and the mutation history; -restore, when given, supplies
		// the base snapshot and is cross-checked against the WAL.
		var info server.RecoveryInfo
		d, wal, info, err = server.Recover(*restorePath, *walPath)
		if err != nil {
			return err
		}
		torn := ""
		if info.TruncatedBytes > 0 {
			torn = fmt.Sprintf(", %d-byte torn tail truncated", info.TruncatedBytes)
		}
		fmt.Printf("recovered wal %s: resuming at tick %d/%d (%d durable mutations%s)\n",
			*walPath, info.Tick, d.Spec().Ticks, info.Mutations, torn)
	case *restorePath != "":
		snap, rerr := server.ReadSnapshot(*restorePath)
		if rerr != nil {
			return rerr
		}
		d, err = server.Restore(snap)
		if err != nil {
			return err
		}
		fmt.Printf("restored snapshot %s at tick %d/%d (%d journal entries)\n",
			*restorePath, snap.Tick, d.Spec().Ticks, len(snap.Journal))
	default:
		if d, err = server.New(spec); err != nil {
			return err
		}
	}
	// -wal set but no file yet: create one seeded with the daemon's
	// current journal (empty on a fresh boot; the base snapshot's
	// journal after -restore), so the WAL always holds the complete
	// history from tick 0.
	if *walPath != "" && !walExists {
		if wal, err = server.CreateWAL(*walPath, d.Spec(), d.Snapshot().Journal); err != nil {
			return err
		}
		d.AttachWAL(wal)
		fmt.Printf("wal %s armed: mutations are durable before they are acknowledged\n", *walPath)
	}
	if wal != nil {
		defer wal.Close()
	}
	defer d.Close()

	sink, err := env.openSink(d)
	if err != nil {
		return err
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var srv *http.Server
	if env.addr != "" {
		handler := server.NewHandlerOpts(d, server.HandlerOptions{
			MaxInflight: env.maxInflight,
			MaxQueue:    env.maxQueue,
		})
		bound := ""
		if srv, bound, err = env.serve(handler); err != nil {
			return err
		}
		spec := d.Spec()
		fmt.Printf("willowd: %d servers, U=%.0f%%, supply=%s, %d ticks; listening on http://%s\n",
			spec.Servers(), spec.Util*100, spec.Supply, spec.Ticks, bound)
	}

	return env.driveAndDrain(ctx, d, srv, sink)
}

// runtimeEnv bundles the flags both the primary and follower paths
// share: where to listen, where telemetry and snapshots go, how to
// pace the tick loop once driving.
type runtimeEnv struct {
	addr, portFile       string
	events, eventsFilter string
	snapshotPath         string
	tickDur              time.Duration
	ff                   bool
	maxInflight          int
	maxQueue             int
	pprofOn              bool
}

// runFollower boots willowd as a hot standby: tail the primary, serve
// the follower API, and on promotion become a full primary driving the
// run from the replicated boundary.
func runFollower(env *runtimeEnv, fopts server.FollowerOptions) error {
	f, err := server.NewFollower(fopts)
	if err != nil {
		return err
	}
	defer f.Close()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var (
		srv *http.Server
		sw  *server.SwitchHandler
	)
	if env.addr != "" {
		// The promote endpoint swaps in the full primary surface the
		// moment promotion succeeds; the listener never restarts.
		onPromote := func(d *server.Daemon) {
			sw.Set(server.NewHandlerOpts(d, server.HandlerOptions{
				MaxInflight: env.maxInflight,
				MaxQueue:    env.maxQueue,
			}))
		}
		sw = server.NewSwitchHandler(server.NewFollowerHandler(f, onPromote))
		bound := ""
		if srv, bound, err = env.serve(sw); err != nil {
			return err
		}
		auto := "manual promote only"
		if fopts.PromoteAfter > 0 {
			auto = fmt.Sprintf("auto-promote after %s of silence", fopts.PromoteAfter)
		}
		fmt.Printf("willowd: standby following %s (%s); listening on http://%s\n",
			fopts.Primary, auto, bound)
	}

	runErr := f.Run(ctx)
	d := f.Promoted()
	if d == nil {
		// Drained before ever promoting: stop serving and keep the WAL —
		// the standby can resume tailing from its durable cursor later.
		if srv != nil {
			shCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			_ = srv.Shutdown(shCtx)
		}
		if runErr != nil && !errors.Is(runErr, context.Canceled) {
			return runErr
		}
		fmt.Printf("standby drained at %d replicated records (resume tick %d)\n", f.Records(), f.ResumeTick())
		return nil
	}

	fmt.Printf("promoted: resuming run at tick %d/%d with %d replicated mutations\n",
		d.NextTick(), d.Spec().Ticks, f.Records())
	if sw != nil {
		// Auto-promotion does not pass through the HTTP handler; make sure
		// the primary surface is live either way (Set is idempotent).
		sw.Set(server.NewHandlerOpts(d, server.HandlerOptions{
			MaxInflight: env.maxInflight,
			MaxQueue:    env.maxQueue,
		}))
	}
	defer d.Close()
	sink, err := env.openSink(d)
	if err != nil {
		return err
	}
	return env.driveAndDrain(ctx, d, srv, sink)
}

// openSink opens the -events FileSink and attaches it, when configured.
func (env *runtimeEnv) openSink(d *server.Daemon) (*telemetry.FileSink, error) {
	if env.events == "" {
		return nil, nil
	}
	keep := telemetry.AllKinds
	if env.eventsFilter != "" {
		var err error
		if keep, err = telemetry.ParseKindSet(env.eventsFilter); err != nil {
			return nil, err
		}
	}
	base := strings.TrimSuffix(env.events, ".jsonl")
	sink, err := telemetry.OpenFileSink(env.events, base+".summary.txt", "willowd telemetry", keep)
	if err != nil {
		return nil, err
	}
	d.SetSink(sink)
	return sink, nil
}

// serve binds env.addr, writes the port file, and starts an http.Server
// on handler (plus the pprof surface when armed).
func (env *runtimeEnv) serve(handler http.Handler) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", env.addr)
	if err != nil {
		return nil, "", err
	}
	bound := ln.Addr().String()
	if env.portFile != "" {
		if werr := os.WriteFile(env.portFile, []byte(bound+"\n"), 0o644); werr != nil {
			return nil, "", werr
		}
	}
	if env.pprofOn {
		// Profiling is opt-in: the pprof surface costs nothing until
		// mounted, and a public daemon should not expose it by accident.
		root := http.NewServeMux()
		root.HandleFunc("/debug/pprof/", pprof.Index)
		root.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		root.HandleFunc("/debug/pprof/profile", pprof.Profile)
		root.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		root.HandleFunc("/debug/pprof/trace", pprof.Trace)
		root.Handle("/", handler)
		handler = root
	}
	// Slow-client hardening. No WriteTimeout: /v1/events streams for
	// the life of the subscription and a write deadline would sever it.
	srv := &http.Server{
		Handler:           handler,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	go func() {
		if serr := srv.Serve(ln); serr != nil && !errors.Is(serr, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "willowd: http:", serr)
		}
	}()
	return srv, bound, nil
}

// driveAndDrain runs the tick loop to completion or signal, then drains
// in the only safe order: daemon streams first (hub + replication feed
// — they would otherwise hold Shutdown open), then the HTTP listener,
// then sink flush and the final snapshot — always at a clean tick
// boundary.
func (env *runtimeEnv) driveAndDrain(ctx context.Context, d *server.Daemon, srv *http.Server, sink *telemetry.FileSink) error {
	pace := env.tickDur
	if env.ff {
		pace = 0
	}
	runErr := make(chan error, 1)
	go func() { runErr <- d.Run(ctx, pace) }()

	// Serve-until-signalled when the API is up; otherwise the run's end
	// is the daemon's end (batch restore/verify mode).
	var driveErr error
	if srv != nil {
		select {
		case <-ctx.Done():
			driveErr = <-runErr
		case driveErr = <-runErr:
			if driveErr == nil {
				fmt.Printf("run complete at tick %d; serving until SIGTERM\n", d.NextTick())
				<-ctx.Done()
			}
		}
	} else {
		driveErr = <-runErr
	}
	if driveErr != nil && !errors.Is(driveErr, context.Canceled) {
		return driveErr
	}
	interrupted := errors.Is(driveErr, context.Canceled)

	d.Close()
	if srv != nil {
		shCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if serr := srv.Shutdown(shCtx); serr != nil {
			fmt.Fprintln(os.Stderr, "willowd: shutdown:", serr)
		}
	}
	if sink != nil {
		d.SetSink(nil)
		if cerr := sink.Close(); cerr != nil {
			return cerr
		}
	}
	if env.snapshotPath != "" {
		snap, werr := d.WriteSnapshot(env.snapshotPath)
		if werr != nil {
			return werr
		}
		fmt.Printf("snapshot written to %s (tick %d, %d journal entries)\n",
			env.snapshotPath, snap.Tick, len(snap.Journal))
	}

	st := d.Stats()
	verb := "run complete"
	if interrupted && st.Tick < st.Ticks {
		verb = "interrupted"
	}
	fmt.Printf("%s at tick %d/%d: energy %.0f watt-ticks, dropped %.0f, max temp %.1f °C, %d+%d migrations, %d events published (%d dropped)\n",
		verb, st.Tick, st.Ticks, st.TotalEnergy, st.DroppedWattTicks, st.MaxTemp,
		st.DemandMigrations, st.ConsolidationMigrations, st.EventsPublished, st.EventsDropped)
	return nil
}
