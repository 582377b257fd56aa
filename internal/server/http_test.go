package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"willow/internal/telemetry"
)

func newTestDaemon(t *testing.T, spec Spec) *Daemon {
	t.Helper()
	d, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	return d
}

func getJSON(t *testing.T, url string, dst any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", url, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(dst); err != nil {
		t.Fatalf("GET %s: decoding: %v", url, err)
	}
}

func postJSON(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

// TestConcurrentAPIHammer drives the tick loop while 32 goroutines
// hammer /v1/state and /v1/demand. Run it under -race: the point is
// that every handler serializes on the tick lock, so concurrent reads
// always see consistent tick-boundary state and concurrent mutations
// always land on boundaries.
func TestConcurrentAPIHammer(t *testing.T) {
	spec := testSpec()
	spec.Ticks = 100_000 // effectively unbounded for the test's duration
	d := newTestDaemon(t, spec)
	ts := httptest.NewServer(NewHandlerOpts(d, HandlerOptions{}))
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- d.Run(ctx, 200*time.Microsecond) }()

	const goroutines = 32
	const perGoroutine = 50
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*perGoroutine)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perGoroutine; i++ {
				if g%2 == 0 {
					resp, err := http.Get(ts.URL + "/v1/state")
					if err != nil {
						errs <- err
						continue
					}
					var st State
					err = json.NewDecoder(resp.Body).Decode(&st)
					resp.Body.Close()
					if err != nil {
						errs <- err
						continue
					}
					if resp.StatusCode != http.StatusOK || len(st.ServerStates) != 6 {
						errs <- fmt.Errorf("state: status %d, %d servers", resp.StatusCode, len(st.ServerStates))
					}
				} else {
					body := fmt.Sprintf(`{"server": %d, "factor": %.3f}`, i%6, 1.0+0.001*float64(g%5))
					resp, err := http.Post(ts.URL+"/v1/demand", "application/json", strings.NewReader(body))
					if err != nil {
						errs <- err
						continue
					}
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						errs <- fmt.Errorf("demand: status %d", resp.StatusCode)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	cancel()
	if err := <-done; err != context.Canceled {
		t.Fatalf("driver returned %v", err)
	}

	// Every accepted demand POST is journaled, and the daemon still
	// rests at a clean boundary.
	if got, want := len(d.Snapshot().Journal), goroutines/2*perGoroutine; got != want {
		t.Fatalf("journal has %d entries, want %d", got, want)
	}
}

// TestGracefulShutdownSnapshotRoundTrip is the shutdown-path pin: stop
// the driver mid-run (the SIGTERM path), snapshot over the API, and
// assert the restored daemon reproduces the exact next-tick state.
func TestGracefulShutdownSnapshotRoundTrip(t *testing.T) {
	spec := testSpec()
	d := newTestDaemon(t, spec)
	ts := httptest.NewServer(NewHandlerOpts(d, HandlerOptions{}))
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- d.Run(ctx, 100*time.Microsecond) }()

	// Mutate while live so the snapshot has a journal to replay.
	if resp, body := postJSON(t, ts.URL+"/v1/demand", `{"server": -1, "factor": 1.2}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("demand: %s: %s", resp.Status, body)
	}
	for d.NextTick() < 20 {
		time.Sleep(time.Millisecond)
	}
	cancel() // graceful stop: driver exits at a tick boundary
	if err := <-done; err != context.Canceled {
		t.Fatalf("driver returned %v", err)
	}

	resp, body := postJSON(t, ts.URL+"/v1/snapshot", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("snapshot: %s", resp.Status)
	}
	snap, err := DecodeSnapshot(bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if snap.Tick < 20 || len(snap.Journal) == 0 {
		t.Fatalf("snapshot at tick %d with %d journal entries", snap.Tick, len(snap.Journal))
	}
	// The endpoint and WriteSnapshot share one encoder: at the same
	// boundary the body is the file, byte for byte.
	path := filepath.Join(t.TempDir(), "run.snap")
	if _, err := d.WriteSnapshot(path); err != nil {
		t.Fatal(err)
	}
	if file, err := os.ReadFile(path); err != nil || !bytes.Equal(file, body) {
		t.Fatalf("POST /v1/snapshot body differs from the WriteSnapshot file (%v)", err)
	}

	r, err := Restore(snap)
	if err != nil {
		t.Fatal(err)
	}
	same := func(label string) {
		t.Helper()
		a, _ := json.Marshal(d.State())
		b, _ := json.Marshal(r.State())
		if !bytes.Equal(a, b) {
			t.Fatalf("%s: restored state differs", label)
		}
	}
	same("at shutdown boundary")
	d.StepN(1)
	r.StepN(1)
	same("next tick after restore")
}

func TestEventsStreaming(t *testing.T) {
	d := newTestDaemon(t, testSpec())
	ts := httptest.NewServer(NewHandlerOpts(d, HandlerOptions{}))
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/v1/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type = %q", ct)
	}

	go d.Run(context.Background(), 0)

	sc := bufio.NewScanner(resp.Body)
	for i := 0; i < 10; i++ {
		if !sc.Scan() {
			t.Fatalf("stream ended after %d events: %v", i, sc.Err())
		}
		ev, err := telemetry.Decode(sc.Bytes())
		if err != nil {
			t.Fatalf("line %d undecodable: %v", i, err)
		}
		if ev.Kind == 0 {
			t.Fatalf("line %d has no kind", i)
		}
	}
}

func TestEventsStreamingSSEAndFilters(t *testing.T) {
	d := newTestDaemon(t, testSpec())
	ts := httptest.NewServer(NewHandlerOpts(d, HandlerOptions{}))
	defer ts.Close()

	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/events?kinds=budget", nil)
	req.Header.Set("Accept", "text/event-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}

	go d.Run(context.Background(), 0)

	sc := bufio.NewScanner(resp.Body)
	seen := 0
	for sc.Scan() && seen < 5 {
		line := sc.Text()
		if line == "" {
			continue
		}
		if !strings.HasPrefix(line, "data: ") {
			t.Fatalf("SSE line %q lacks data prefix", line)
		}
		ev, err := telemetry.Decode([]byte(strings.TrimPrefix(line, "data: ")))
		if err != nil {
			t.Fatal(err)
		}
		if ev.Kind != telemetry.KindBudgetChange {
			t.Fatalf("kind filter leaked a %v event", ev.Kind)
		}
		seen++
	}
	if seen < 5 {
		t.Fatalf("saw only %d filtered events: %v", seen, sc.Err())
	}

	// Hub shutdown terminates the stream rather than holding the
	// connection (and HTTP server drain) open forever.
	d.Close()
	deadline := time.After(5 * time.Second)
	drained := make(chan struct{})
	go func() {
		for sc.Scan() {
		}
		close(drained)
	}()
	select {
	case <-drained:
	case <-deadline:
		t.Fatalf("stream still open after hub shutdown")
	}
}

func TestHandlerErrors(t *testing.T) {
	d := newTestDaemon(t, testSpec())
	ts := httptest.NewServer(NewHandlerOpts(d, HandlerOptions{}))
	defer ts.Close()

	cases := []struct {
		method, path, body string
		want               int
	}{
		{"POST", "/v1/state", "", http.StatusMethodNotAllowed},
		{"GET", "/v1/demand", "", http.StatusMethodNotAllowed},
		{"POST", "/v1/demand", `{"server": 99, "factor": 1.0}`, http.StatusUnprocessableEntity},
		{"POST", "/v1/demand", `not json`, http.StatusBadRequest},
		{"POST", "/v1/demand", `{"unknown_field": 1}`, http.StatusBadRequest},
		{"POST", "/v1/chaos", `{"spec": "no-such-preset"}`, http.StatusUnprocessableEntity},
		{"POST", "/v1/chaos", `{"spec": "server-mtbf=NaN"}`, http.StatusUnprocessableEntity},
		{"POST", "/v1/chaos", `{"spec": "sensor-heavy", "sensor": true}`, http.StatusBadRequest},
		{"GET", "/v1/events?kinds=bogus", "", http.StatusBadRequest},
		{"GET", "/v1/events?buffer=-3", "", http.StatusBadRequest},
		{"GET", "/v1/nope", "", http.StatusNotFound},
	}
	for _, tc := range cases {
		req, err := http.NewRequest(tc.method, ts.URL+tc.path, strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s %s: status %d, want %d", tc.method, tc.path, resp.StatusCode, tc.want)
		}
	}
}

func TestStatsEndpoint(t *testing.T) {
	d := newTestDaemon(t, testSpec())
	d.StepN(60)
	ts := httptest.NewServer(NewHandlerOpts(d, HandlerOptions{}))
	defer ts.Close()

	var st StatsView
	getJSON(t, ts.URL+"/v1/stats", &st)
	if st.Tick != 60 || st.Ticks != 200 || st.Done {
		t.Fatalf("stats tick %d/%d done=%v, want 60/200 running", st.Tick, st.Ticks, st.Done)
	}
	if st.TotalEnergy <= 0 || st.MaxTemp <= 0 {
		t.Fatalf("stats missing accumulated measurements: %+v", st)
	}
	if st.EventsPublished == 0 {
		t.Fatalf("no events published after 60 ticks")
	}
}

// TestRunLoad exercises the load generator library end to end against
// a live daemon, including the events subscriber.
func TestRunLoad(t *testing.T) {
	spec := testSpec()
	spec.Ticks = 100_000
	d := newTestDaemon(t, spec)
	ts := httptest.NewServer(NewHandlerOpts(d, HandlerOptions{}))
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go d.Run(ctx, 200*time.Microsecond)

	report, err := RunLoad(ctx, LoadOptions{
		BaseURL:  ts.URL,
		Clients:  4,
		Requests: 200,
		Seed:     7,
		Stream:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if report.Requests != 200 {
		t.Fatalf("report counts %d requests, want 200", report.Requests)
	}
	if report.Errors != 0 {
		t.Fatalf("%d requests failed", report.Errors)
	}
	if report.Events == 0 {
		t.Fatalf("events subscriber saw nothing while the daemon ticked")
	}
	if len(report.Latencies) != report.Requests {
		t.Fatalf("report holds %d latencies for %d requests", len(report.Latencies), report.Requests)
	}
	if tb := report.Table("load"); !strings.Contains(tb.String(), "requests") {
		t.Fatalf("report table missing request row")
	}
}

// TestStateResponseCompactJSON pins the /v1/state wire format: at a
// quiescent tick boundary the body is exactly json.Marshal(d.State())
// and a newline. A cache or a custom encoder must keep these bytes.
func TestStateResponseCompactJSON(t *testing.T) {
	d := newTestDaemon(t, testSpec())
	d.StepN(60)
	rec := httptest.NewRecorder()
	NewHandlerOpts(d, HandlerOptions{}).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/state", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /v1/state: status %d", rec.Code)
	}
	want, err := json.Marshal(d.State())
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, '\n')
	if got := rec.Body.Bytes(); !bytes.Equal(got, want) {
		t.Fatalf("GET /v1/state body is not compact JSON:\n got %d bytes: %.120s\nwant %d bytes: %.120s", len(got), got, len(want), want)
	}
}

// batchWriter is an http.ResponseWriter for the streaming handlers
// that counts Flush calls. Its first body Write waits until release is
// closed, so a test can queue a backlog on the subscription while the
// handler holds its first write. Only the handler's goroutine writes
// and flushes; the test reads body and flushes after the handler has
// returned.
type batchWriter struct {
	header  http.Header
	release chan struct{} // the first Write waits for it
	opened  chan struct{} // closed by the first Flush, which commits the headers
	full    chan struct{} // closed once the body holds want bytes
	want    int           // set before release is closed

	body    bytes.Buffer
	flushes int
	wrote   bool
}

func newBatchWriter() *batchWriter {
	return &batchWriter{
		header:  http.Header{},
		release: make(chan struct{}),
		opened:  make(chan struct{}),
		full:    make(chan struct{}),
	}
}

func (w *batchWriter) Header() http.Header { return w.header }

func (w *batchWriter) WriteHeader(int) {}

func (w *batchWriter) Write(p []byte) (int, error) {
	if !w.wrote {
		w.wrote = true
		<-w.release
	}
	full := w.body.Len() >= w.want
	n, err := w.body.Write(p)
	if !full && w.body.Len() >= w.want {
		close(w.full)
	}
	return n, err
}

func (w *batchWriter) Flush() {
	w.flushes++
	if w.flushes == 1 {
		close(w.opened)
	}
}

// TestEventsStreamOneFlushPerBatch pins the batched event stream: the
// events queued while the handler is busy go out in one flush, and the
// body is byte for byte what the lossless sink saw, in publish order,
// for NDJSON, SSE and a ?from= history replay ahead of the live feed.
func TestEventsStreamOneFlushPerBatch(t *testing.T) {
	cases := []struct {
		name  string
		query string
		sse   bool
		// pre ticks run before the request, so ?from=0 replays them.
		pre int
		// maxFlushes: the headers, the history (if any) and the backlog.
		maxFlushes int
	}{
		{name: "ndjson", query: "?buffer=4096", maxFlushes: 2},
		{name: "sse", query: "?buffer=4096", sse: true, maxFlushes: 2},
		{name: "ndjson from history", query: "?buffer=4096&from=0", pre: 5, maxFlushes: 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := newTestDaemon(t, testSpec())
			var published telemetry.Buffer
			d.SetSink(&published)
			d.StepN(tc.pre)

			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			req := httptest.NewRequest(http.MethodGet, "/v1/events"+tc.query, nil).WithContext(ctx)
			if tc.sse {
				req.Header.Set("Accept", "text/event-stream")
			}
			w := newBatchWriter()
			served := make(chan struct{})
			go func() {
				defer close(served)
				NewHandlerOpts(d, HandlerOptions{}).ServeHTTP(w, req)
			}()
			select {
			case <-w.opened:
			case <-served:
				t.Fatalf("handler returned before opening the stream: %s", w.body.Bytes())
			}

			d.StepN(20)
			var want bytes.Buffer
			for _, ev := range published.Events {
				line, err := telemetry.Encode(ev)
				if err != nil {
					t.Fatal(err)
				}
				if tc.sse {
					fmt.Fprintf(&want, "data: %s\n\n", line)
				} else {
					want.Write(line)
					want.WriteByte('\n')
				}
			}
			w.want = want.Len()
			close(w.release)
			select {
			case <-w.full:
			case <-time.After(10 * time.Second):
			}
			cancel()
			<-served

			if !bytes.Equal(w.body.Bytes(), want.Bytes()) {
				t.Fatalf("streamed %d bytes, want the %d bytes of the %d published events", w.body.Len(), want.Len(), len(published.Events))
			}
			if w.flushes > tc.maxFlushes {
				t.Fatalf("%d flushes for %d events, want at most %d", w.flushes, len(published.Events), tc.maxFlushes)
			}
		})
	}
}
