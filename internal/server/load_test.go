package server

import (
	"context"
	"math"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// TestLoadRetriesShedRequests pins the generator's client-side overload
// behavior against a stub daemon: 429 responses are retried with
// backoff (honoring Retry-After), counted in the report, and a request
// that eventually succeeds is not an error.
func TestLoadRetriesShedRequests(t *testing.T) {
	var calls atomic.Int64
	const rejectFirst = 3
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/state" && r.Method == http.MethodGet && calls.Load() == 0 {
			// The probe request RunLoad sends before hammering.
			w.Write([]byte(`{"num_servers": 6}`))
			calls.Add(1)
			return
		}
		// Shed the first few load requests the way the admission gate
		// does, then accept everything.
		if calls.Add(1) <= rejectFirst+1 {
			w.Header().Set("Retry-After", "0")
			w.WriteHeader(http.StatusTooManyRequests)
			return
		}
		w.Write([]byte(`{}`))
	}))
	defer stub.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	report, err := RunLoad(ctx, LoadOptions{
		BaseURL:  stub.URL,
		Clients:  1, // sequential, so the shed/accept sequence is deterministic
		Requests: 10,
		Seed:     1,
		Retries:  rejectFirst,
		Backoff:  time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if report.Errors != 0 {
		t.Fatalf("report.Errors = %d, want 0 (shed requests must be retried to success)", report.Errors)
	}
	if report.Rejected != rejectFirst {
		t.Fatalf("report.Rejected = %d, want %d", report.Rejected, rejectFirst)
	}
	if report.Retries != rejectFirst {
		t.Fatalf("report.Retries = %d, want %d", report.Retries, rejectFirst)
	}
	if report.Requests != 10 {
		t.Fatalf("report.Requests = %d, want 10", report.Requests)
	}
}

// TestLoadRetriesExhausted pins the failure path: a server that sheds
// forever turns into report errors after the retry budget, never an
// infinite loop.
func TestLoadRetriesExhausted(t *testing.T) {
	var probed atomic.Bool
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if probed.CompareAndSwap(false, true) {
			w.Write([]byte(`{"num_servers": 6}`))
			return
		}
		w.Header().Set("Retry-After", "0")
		w.WriteHeader(http.StatusTooManyRequests)
	}))
	defer stub.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	report, err := RunLoad(ctx, LoadOptions{
		BaseURL:  stub.URL,
		Clients:  1,
		Requests: 2,
		Seed:     1,
		Retries:  2,
		Backoff:  time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if report.Errors != 2 {
		t.Fatalf("report.Errors = %d, want 2", report.Errors)
	}
	if want := 2 * 3; report.Rejected != want { // every attempt was shed
		t.Fatalf("report.Rejected = %d, want %d", report.Rejected, want)
	}
	if want := 2 * 2; report.Retries != want {
		t.Fatalf("report.Retries = %d, want %d", report.Retries, want)
	}
}

// TestLoadPerRequestTimeout pins the -req-timeout path: a hung endpoint
// trips the per-request deadline, counts as a timeout, and retries.
func TestLoadPerRequestTimeout(t *testing.T) {
	var probed atomic.Bool
	var hung atomic.Int64
	release := make(chan struct{})
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if probed.CompareAndSwap(false, true) {
			w.Write([]byte(`{"num_servers": 6}`))
			return
		}
		if hung.Add(1) == 1 {
			<-release // hang the first load request past the deadline
		}
		w.Write([]byte(`{}`))
	}))
	defer stub.Close()
	defer close(release)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	report, err := RunLoad(ctx, LoadOptions{
		BaseURL:        stub.URL,
		Clients:        1,
		Requests:       3,
		Seed:           1,
		RequestTimeout: 50 * time.Millisecond,
		Retries:        1,
		Backoff:        time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if report.Errors != 0 {
		t.Fatalf("report.Errors = %d, want 0 (timed-out request must retry to success)", report.Errors)
	}
	if report.Timeouts != 1 {
		t.Fatalf("report.Timeouts = %d, want 1", report.Timeouts)
	}
	if report.Retries != 1 {
		t.Fatalf("report.Retries = %d, want 1", report.Retries)
	}
}

// TestLoadReportPercentiles pins the report's nearest-rank percentiles
// and maximum on known latencies: the p-th percentile of n requests is
// the ⌈p·n/100⌉-th smallest latency, so p95 and p99 of 100 requests are
// the 95th and 99th, never a bucket bound.
func TestLoadReportPercentiles(t *testing.T) {
	ms := func(vs ...float64) []float64 {
		for i := range vs {
			vs[i] /= 1e3
		}
		return vs
	}
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(i + 1)
	}
	cases := []struct {
		name                string
		latencies           []float64 // ascending, seconds
		p50, p95, p99, pmax float64   // milliseconds
	}{
		{"none", nil, 0, 0, 0, 0},
		{"one", ms(7), 7, 7, 7, 7},
		{"three", ms(1, 3, 5), 3, 5, 5, 5},
		{"four", ms(1, 2, 3, 4), 2, 4, 4, 4},
		{"twenty", ms(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20), 10, 19, 20, 20},
		{"hundred", ms(hundred...), 50, 95, 99, 100},
		{"tail", ms(1, 1, 1, 1, 1, 1, 1, 1, 1, 22.17, 25.97), 1, 25.97, 25.97, 25.97},
	}
	for _, tc := range cases {
		r := &LoadReport{Latencies: tc.latencies}
		for _, c := range []struct {
			p    int
			want float64
		}{{50, tc.p50}, {95, tc.p95}, {99, tc.p99}, {100, tc.pmax}} {
			if got := r.Percentile(c.p) * 1e3; math.Abs(got-c.want) > 1e-9 {
				t.Errorf("%s: p%d = %v ms, want %v ms", tc.name, c.p, got, c.want)
			}
		}
	}
}
