package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"willow/internal/telemetry"
)

// repDecoder reads one replication stream in a test.
type repDecoder struct {
	t    *testing.T
	resp *http.Response
}

func openReplicate(t *testing.T, base string, from int) *repDecoder {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("%s/v1/replicate?from=%d", base, from))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		t.Fatalf("GET /v1/replicate: %s", resp.Status)
	}
	if err := readHeader(resp.Body); err != nil {
		resp.Body.Close()
		t.Fatalf("replication stream header: %v", err)
	}
	return &repDecoder{t: t, resp: resp}
}

// close ends the stream; callers defer it AFTER the server's own defer
// so the connection is gone before the server waits for it.
func (r *repDecoder) close() { r.resp.Body.Close() }

func (r *repDecoder) next() record {
	r.t.Helper()
	rec, _, err := readRecord(r.resp.Body)
	if err != nil {
		r.t.Fatalf("decoding replication record: %v", err)
	}
	return rec
}

// recordStream records a /v1/replicate body: the opening (spec, a
// one-mutation backlog, the boundary), then a live mutation and two
// ticks, ended by the daemon draining.
func recordStream(t testing.TB) []byte {
	d, err := New(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	d.StepN(10)
	if _, err := d.ScaleDemand(-1, 1.1); err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	served := make(chan struct{})
	go func() {
		defer close(served)
		serveReplicate(d, rec, httptest.NewRequest(http.MethodGet, "/v1/replicate?from=0", nil))
	}()
	for d.rep.count() == 0 {
		time.Sleep(time.Millisecond)
	}
	if _, err := d.ScaleDemand(2, 0.9); err != nil {
		t.Fatal(err)
	}
	d.StepN(2)
	d.Close() // the handler drains what the feed holds, then returns
	<-served
	return rec.Body.Bytes()
}

// TestReplicationStreamBackfillAndLive pins the /v1/replicate wire
// contract: spec record first, then the journal backlog from the
// cursor, an initial heartbeat carrying the primary's boundary, and
// live records — mutations in journal order, heartbeats per tick — as
// the run advances.
func TestReplicationStreamBackfillAndLive(t *testing.T) {
	d := newTestDaemon(t, testSpec())
	ts := httptest.NewServer(NewHandlerOpts(d, HandlerOptions{}))
	defer ts.Close()

	d.StepN(10)
	if _, err := d.ScaleDemand(-1, 1.1); err != nil {
		t.Fatal(err)
	}

	rd := openReplicate(t, ts.URL, 0)
	defer rd.close()
	spec := rd.next()
	if spec.Type != recSpec || !reflect.DeepEqual(*spec.Spec, d.Spec()) {
		t.Fatalf("first record = %+v, want the run spec", spec)
	}
	mut := rd.next()
	if mut.Type != recMut || mut.Index != 0 || mut.Mut.Kind != "demand" {
		t.Fatalf("backlog record = %+v, want journal entry 0", mut)
	}
	hb := rd.next()
	if hb.Type != recBoundary || hb.Tick != 10 || hb.Records != 1 {
		t.Fatalf("initial boundary = %+v, want tick 10 records 1", hb)
	}

	// Live: a new mutation then a tick must arrive in order.
	if _, err := d.ScaleDemand(2, 0.9); err != nil {
		t.Fatal(err)
	}
	d.StepN(1)
	live := rd.next()
	if live.Type != recMut || live.Index != 1 {
		t.Fatalf("live record = %+v, want journal entry 1", live)
	}
	tick := rd.next()
	if tick.Type != recBoundary || tick.Tick != 11 || tick.Records != 2 {
		t.Fatalf("live boundary = %+v, want tick 11 records 2", tick)
	}
}

// TestReplicationResumeCursor pins the reconnect path: ?from=<durable
// count> must skip the already-held backlog entirely, and cursors
// outside the journal must be rejected, not silently clamped.
func TestReplicationResumeCursor(t *testing.T) {
	d := newTestDaemon(t, testSpec())
	ts := httptest.NewServer(NewHandlerOpts(d, HandlerOptions{}))
	defer ts.Close()

	d.StepN(5)
	for i := 0; i < 2; i++ {
		if _, err := d.ScaleDemand(-1, 1.05); err != nil {
			t.Fatal(err)
		}
	}

	rd := openReplicate(t, ts.URL, 2)
	defer rd.close()
	if rec := rd.next(); rec.Type != recSpec {
		t.Fatalf("resumed stream starts with %+v, want spec", rec)
	}
	if rec := rd.next(); rec.Type != recBoundary || rec.Records != 2 {
		t.Fatalf("resumed stream record = %+v, want a boundary with records 2 (no re-sent backlog)", rec)
	}

	for _, q := range []string{"from=3", "from=-1", "from=abc"} {
		resp, err := http.Get(ts.URL + "/v1/replicate?" + q)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("GET /v1/replicate?%s = %s, want 400", q, resp.Status)
		}
	}
}

// startFollower runs a fast-retry follower against base and returns it
// plus a channel carrying Run's result.
func startFollower(t *testing.T, base, walPath string, promoteAfter time.Duration) (*Follower, chan error, context.CancelFunc) {
	t.Helper()
	f, err := NewFollower(FollowerOptions{
		Primary:      base,
		WALPath:      walPath,
		PromoteAfter: promoteAfter,
		Backoff:      5 * time.Millisecond,
		BackoffMax:   25 * time.Millisecond,
		IdleTimeout:  500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	stopped := make(chan struct{})
	go func() {
		done <- f.Run(ctx)
		close(stopped)
	}()
	t.Cleanup(func() {
		cancel()
		select {
		case <-stopped:
		case <-time.After(10 * time.Second):
			t.Error("follower Run never returned after cancel")
		}
		f.Close()
	})
	return f, done, cancel
}

// TestFollowerRejectsUndecodableSpec pins strict decoding on the
// replication link: a stream in another journal version, or a spec
// record with a field this binary does not know, stops the standby with
// a fatal error, before any WAL exists, instead of replicating a
// different run or reconnecting forever.
func TestFollowerRejectsUndecodableSpec(t *testing.T) {
	version1 := binary.LittleEndian.AppendUint32([]byte(journalMagic), 1)
	spec := testSpec()
	for _, tc := range []struct {
		name    string
		body    []byte
		wantErr string
	}{
		{"spec with an unknown field", cat(walHeader(), unknownFieldSpec), `"hotzon"`},
		{"version-1 header", cat(version1, walFrame(t, record{Type: recSpec, Spec: &spec})), "version 1, want 3"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			primary := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				w.Write(tc.body)
				w.(http.Flusher).Flush()
				<-r.Context().Done()
			}))
			defer primary.Close()
			walPath := filepath.Join(t.TempDir(), "standby.wal")
			_, done, _ := startFollower(t, primary.URL, walPath, 0)
			select {
			case err := <-done:
				if !errors.Is(err, errFollowerFatal) || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("Run = %v, want a fatal error naming %s", err, tc.wantErr)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("follower kept retrying an undecodable stream")
			}
			if _, err := os.Stat(walPath); !os.IsNotExist(err) {
				t.Fatalf("standby WAL exists after an undecodable stream: %v", err)
			}
		})
	}
}

// TestFollowerSwitchHandler pins the promotion swap: requests served
// after Set reach the new handler, and Set may run while requests are
// being served (run under -race).
func TestFollowerSwitchHandler(t *testing.T) {
	named := func(name string) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) { fmt.Fprint(w, name) })
	}
	serve := func(h http.Handler) string {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
		return rec.Body.String()
	}
	follower, primary := named("follower"), named("primary")
	sw := NewSwitchHandler(follower)
	if got := serve(sw); got != "follower" {
		t.Fatalf("before Set: served by %q, want follower", got)
	}

	// Readers serve a fixed number of requests while the main goroutine
	// keeps swapping handlers until every reader is done.
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				if got := serve(sw); got != "follower" && got != "primary" {
					t.Errorf("concurrent request served by %q", got)
					return
				}
			}
		}()
	}
	readersDone := make(chan struct{})
	go func() {
		wg.Wait()
		close(readersDone)
	}()
	for swapping, i := true, 0; swapping; i++ {
		select {
		case <-readersDone:
			swapping = false
		default:
			if i%2 == 0 {
				sw.Set(primary)
			} else {
				sw.Set(follower)
			}
		}
	}
	sw.Set(primary)
	for i := 0; i < 3; i++ {
		if got := serve(sw); got != "primary" {
			t.Fatalf("after Set: served by %q, want primary", got)
		}
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestFollowerPromoteByteIdentical is the core claim in miniature: a
// follower that replicated a primary's run over HTTP — through its own
// durable WAL — promotes to a daemon whose remaining execution is
// byte-identical to the primary's, mutations included.
func TestFollowerPromoteByteIdentical(t *testing.T) {
	spec := testSpec()
	dir := t.TempDir()
	d1, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	defer d1.Close()
	wal, err := CreateWAL(filepath.Join(dir, "primary.wal"), spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer wal.Close()
	d1.AttachWAL(wal)
	ts := httptest.NewServer(NewHandlerOpts(d1, HandlerOptions{}))
	defer ts.Close()

	f, _, _ := startFollower(t, ts.URL, filepath.Join(dir, "standby.wal"), 0)

	d1.StepN(30)
	if _, err := d1.ScaleDemand(-1, 1.1); err != nil {
		t.Fatal(err)
	}
	d1.StepN(40)
	if _, err := d1.ScaleDemand(3, 0.95); err != nil {
		t.Fatal(err)
	}
	d1.StepN(10)

	waitFor(t, "follower catch-up", func() bool {
		return f.Records() == 2 && f.ResumeTick() == d1.NextTick()
	})

	d2, err := f.Promote()
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if d2.NextTick() != d1.NextTick() {
		t.Fatalf("promoted at tick %d, primary at %d", d2.NextTick(), d1.NextTick())
	}

	// Both daemons finish the run independently; every byte must agree.
	d1.StepN(spec.Ticks)
	d2.StepN(spec.Ticks)
	s1, err := json.Marshal(d1.State())
	if err != nil {
		t.Fatal(err)
	}
	s2, err := json.Marshal(d2.State())
	if err != nil {
		t.Fatal(err)
	}
	if string(s1) != string(s2) {
		t.Fatalf("promoted follower diverged from primary:\nprimary:  %s\npromoted: %s", s1, s2)
	}
	if !reflect.DeepEqual(d1.Snapshot().Journal, d2.Snapshot().Journal) {
		t.Fatal("promoted follower's journal differs from the primary's")
	}

	// The follower's WAL is the primary's, byte for byte: both hold the
	// same records, and a record's frame depends only on its content.
	f.Close()
	primaryWAL, err := os.ReadFile(filepath.Join(dir, "primary.wal"))
	if err != nil {
		t.Fatal(err)
	}
	standbyWAL, err := os.ReadFile(filepath.Join(dir, "standby.wal"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(primaryWAL, standbyWAL) {
		t.Fatalf("standby WAL (%d bytes) differs from the primary's (%d bytes)", len(standbyWAL), len(primaryWAL))
	}
}

// TestReplicationFrameIdentity pins byte identity across the journal's
// three places: each mutation's frame is the same bytes in the WAL, in a
// snapshot and on the replication stream.
func TestReplicationFrameIdentity(t *testing.T) {
	stream := recordStream(t)
	recs, err := decodeAll(stream)
	if err != nil {
		t.Fatal(err)
	}
	var muts []Mutation
	for _, rec := range recs {
		if rec.Type == recMut {
			muts = append(muts, *rec.Mut)
		}
	}
	if len(muts) != 2 || recs[len(recs)-1].Tick != 12 {
		t.Fatalf("recorded stream holds %d mutations, ends at %+v; want 2 and tick 12", len(muts), recs[len(recs)-1])
	}
	path := filepath.Join(t.TempDir(), "run.wal")
	w, err := CreateWAL(path, testSpec(), muts)
	if err != nil {
		t.Fatal(err)
	}
	w.Close()
	wal, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := Snapshot{Spec: testSpec(), Tick: 12, Journal: muts}.encode()
	if err != nil {
		t.Fatal(err)
	}
	for i := range muts {
		frame := walFrame(t, record{Type: recMut, Index: i, Mut: &muts[i]})
		for _, place := range []struct {
			name string
			data []byte
		}{{"wal", wal}, {"snapshot", snap}, {"stream", stream}} {
			if !bytes.Contains(place.data, frame) {
				t.Fatalf("mutation %d's frame is not in the %s", i, place.name)
			}
		}
	}
}

// TestFollowerAutoPromoteAfterHeartbeatLoss pins the automatic
// failover trigger: once the primary goes silent past PromoteAfter,
// the follower promotes itself at its last proven boundary.
func TestFollowerAutoPromoteAfterHeartbeatLoss(t *testing.T) {
	d := newTestDaemon(t, testSpec())
	ts := httptest.NewServer(NewHandlerOpts(d, HandlerOptions{}))
	closed := false
	defer func() {
		if !closed {
			ts.Close()
		}
	}()

	f, done, _ := startFollower(t, ts.URL, "", 150*time.Millisecond)
	d.StepN(5)
	waitFor(t, "heartbeat adoption", func() bool { return f.ResumeTick() == 5 })

	// The primary vanishes: every connection dies, nothing answers.
	ts.CloseClientConnections()
	ts.Close()
	closed = true

	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Run after heartbeat loss: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("follower never auto-promoted after heartbeat loss")
	}
	d2 := f.Promoted()
	if d2 == nil {
		t.Fatal("Run returned without a promoted daemon")
	}
	defer d2.Close()
	if d2.NextTick() != 5 {
		t.Fatalf("auto-promoted at tick %d, want the proven boundary 5", d2.NextTick())
	}
}

// TestMigrationInProcess runs the full live-migration cutover against
// two in-process servers and requires the moved run to reproduce an
// unmoved replay byte for byte.
func TestMigrationInProcess(t *testing.T) {
	spec := testSpec()
	src, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	ts1 := httptest.NewServer(NewHandlerOpts(src, HandlerOptions{}))
	defer ts1.Close()

	f, _, _ := startFollower(t, ts1.URL, "", 0)
	ts2 := httptest.NewServer(NewFollowerHandler(f, nil))
	defer ts2.Close()

	src.StepN(25)
	if _, err := src.ScaleDemand(-1, 1.05); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	rep, err := RunMigration(ctx, MigrationOptions{
		Source: ts1.URL, Target: ts2.URL,
		Poll: 2 * time.Millisecond, Timeout: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.HandoffTick != 25 || rep.HandoffRecords != 1 || rep.PromotedTick != 25 {
		t.Fatalf("cutover report = %+v, want handoff at tick 25 with 1 record", rep)
	}

	// The frozen source must refuse new history.
	if !src.Frozen() {
		t.Fatal("source not frozen after handoff")
	}
	if _, err := src.ScaleDemand(-1, 1.0); err == nil {
		t.Fatal("frozen source accepted a mutation")
	}
	before := src.NextTick()
	src.StepN(3)
	if src.NextTick() != before {
		t.Fatal("frozen source kept ticking")
	}

	// The moved run finishes and matches an uninterrupted replay.
	d2 := f.Promoted()
	if d2 == nil {
		t.Fatal("target not promoted")
	}
	defer d2.Close()
	if _, err := d2.ScaleDemand(2, 1.2); err != nil {
		t.Fatalf("promoted target refused a mutation: %v", err)
	}
	d2.StepN(spec.Ticks)
	oracle, err := Replay(d2.Snapshot(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer oracle.Close()
	moved, err := json.Marshal(d2.State())
	if err != nil {
		t.Fatal(err)
	}
	unmoved, err := json.Marshal(oracle.State())
	if err != nil {
		t.Fatal(err)
	}
	if string(moved) != string(unmoved) {
		t.Fatalf("migrated run diverged from unmoved replay:\nmoved:   %s\nunmoved: %s", moved, unmoved)
	}
}

// TestDrainOrderingUnblocksStreams is the graceful-shutdown regression:
// with a replication stream AND an event stream held open by clients,
// Daemon.Close followed by http.Server.Shutdown must complete promptly
// — closing the hub and replication feed is what unblocks the
// streaming handlers Shutdown waits on.
func TestDrainOrderingUnblocksStreams(t *testing.T) {
	d := newTestDaemon(t, testSpec())
	d.StepN(5) // some history so the event stream has bytes to send
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: NewHandlerOpts(d, HandlerOptions{})}
	go srv.Serve(ln)
	base := "http://" + ln.Addr().String()

	rd := openReplicate(t, base, 0)
	defer rd.close()
	if rec := rd.next(); rec.Type != recSpec {
		t.Fatalf("replication stream opener = %+v", rec)
	}
	evResp, err := http.Get(base + "/v1/events?from=0")
	if err != nil {
		t.Fatal(err)
	}
	defer evResp.Body.Close()
	buf := make([]byte, 1)
	if _, err := evResp.Body.Read(buf); err != nil {
		t.Fatalf("event stream never delivered: %v", err)
	}

	// willowd's drain order: daemon first (kills the streams), then the
	// HTTP server. Shutdown must not wait out its context.
	d.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown with open streams after Daemon.Close: %v", err)
	}
}

// TestEventsFromResume pins the reconnect-resume surface: ?from=T
// replays the retained history from tick T before going live, and a
// malformed cursor is rejected.
func TestEventsFromResume(t *testing.T) {
	d := newTestDaemon(t, testSpec())
	ts := httptest.NewServer(NewHandlerOpts(d, HandlerOptions{}))
	defer ts.Close()

	d.StepN(10)
	history, sub := d.SubscribeEvents(4, 1)
	d.Hub().Unsubscribe(sub)
	if len(history) == 0 {
		t.Fatal("no retained events after 10 ticks")
	}

	resp, err := http.Get(ts.URL + "/v1/events?from=4")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/events?from=4: %s", resp.Status)
	}
	dec := json.NewDecoder(resp.Body)
	for i, want := range history {
		var ev telemetry.Event
		if err := dec.Decode(&ev); err != nil {
			t.Fatalf("replayed event %d: %v", i, err)
		}
		if ev.Tick != want.Tick || ev.Kind != want.Kind {
			t.Fatalf("replayed event %d = (%s, tick %d), want (%s, tick %d)", i, ev.Kind, ev.Tick, want.Kind, want.Tick)
		}
		if ev.Tick < 4 {
			t.Fatalf("replayed event %d at tick %d, before the from=4 cursor", i, ev.Tick)
		}
	}

	badResp, err := http.Get(ts.URL + "/v1/events?from=nope")
	if err != nil {
		t.Fatal(err)
	}
	badResp.Body.Close()
	if badResp.StatusCode != http.StatusBadRequest {
		t.Fatalf("GET /v1/events?from=nope = %s, want 400", badResp.Status)
	}
}

// TestEventRingTail pins the retention window semantics the resume
// surface is built on: oldest retained onward, filtered by tick.
func TestEventRingTail(t *testing.T) {
	r := eventRing{buf: make([]telemetry.Event, 4)}
	for i := 0; i < 10; i++ {
		r.add(telemetry.Event{Tick: i})
	}
	ticks := func(evs []telemetry.Event) []int {
		out := []int{}
		for _, e := range evs {
			out = append(out, e.Tick)
		}
		return out
	}
	if got := ticks(r.tail(0)); !reflect.DeepEqual(got, []int{6, 7, 8, 9}) {
		t.Fatalf("tail(0) = %v, want the 4 newest", got)
	}
	if got := ticks(r.tail(8)); !reflect.DeepEqual(got, []int{8, 9}) {
		t.Fatalf("tail(8) = %v", got)
	}
	if got := r.tail(100); len(got) != 0 {
		t.Fatalf("tail(100) = %v, want empty", got)
	}
	empty := eventRing{buf: make([]telemetry.Event, 4)}
	if got := empty.tail(0); len(got) != 0 {
		t.Fatalf("tail of empty ring = %v", got)
	}
}

// TestRetryAfterParsing is the tolerance table for willow-load's
// Retry-After handling: anything that is not a non-negative integer
// second count means "no hint".
func TestRetryAfterParsing(t *testing.T) {
	cases := []struct {
		header string
		want   time.Duration
	}{
		{"", 0},
		{"3", 3 * time.Second},
		{" 5 ", 5 * time.Second},
		{"0", 0},
		{"-2", 0},
		{"1.5", 0},
		{"garbage", 0},
		{"Wed, 21 Oct 2015 07:28:00 GMT", 0},
	}
	for _, c := range cases {
		if got := parseRetryAfter(c.header); got != c.want {
			t.Errorf("parseRetryAfter(%q) = %v, want %v", c.header, got, c.want)
		}
	}
}

// TestRetryAfterShedContract pins the server side of the same
// contract: every shed response carries a Retry-After that parses as a
// positive integer number of seconds.
func TestRetryAfterShedContract(t *testing.T) {
	d := newTestDaemon(t, testSpec())
	h := NewHandlerOpts(d, HandlerOptions{MaxInflight: 1, MaxQueue: 1, RetryAfter: 2 * time.Second})
	srv := httptest.NewServer(h)
	defer srv.Close()

	d.mu.Lock() // admitted mutations block: everything past the queue sheds
	unlocked := false
	defer func() {
		if !unlocked {
			d.mu.Unlock()
		}
	}()

	const total = 6
	type outcome struct {
		code  int
		retry string
	}
	results := make(chan outcome, total)
	for i := 0; i < total; i++ {
		go func() {
			resp, err := http.Post(srv.URL+"/v1/demand", "application/json",
				strings.NewReader(`{"server": -1, "factor": 1.0}`))
			if err != nil {
				results <- outcome{code: -1}
				return
			}
			resp.Body.Close()
			results <- outcome{code: resp.StatusCode, retry: resp.Header.Get("Retry-After")}
		}()
	}
	deadline := time.After(10 * time.Second)
	for shed := 0; shed < total-2; shed++ {
		select {
		case o := <-results:
			if o.code != http.StatusTooManyRequests {
				t.Fatalf("shed response code = %d, want 429", o.code)
			}
			secs, err := strconv.Atoi(o.retry)
			if err != nil || secs <= 0 {
				t.Fatalf("shed Retry-After = %q, want a positive integer of seconds", o.retry)
			}
		case <-deadline:
			t.Fatal("shed responses never arrived while the gate was saturated")
		}
	}
	d.mu.Unlock()
	unlocked = true
	for i := 0; i < 2; i++ {
		select {
		case o := <-results:
			if o.code != http.StatusOK {
				t.Fatalf("admitted response code = %d, want 200", o.code)
			}
		case <-deadline:
			t.Fatal("admitted requests never finished after the lock released")
		}
	}
}
