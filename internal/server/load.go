package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"willow/internal/dist"
	"willow/internal/metrics"
)

// LoadOptions configures a load-generation run against a live daemon.
type LoadOptions struct {
	// BaseURL is the daemon's root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// Clients is the number of concurrent generator goroutines
	// (default 8); Requests the total request count split across them
	// (default 1000).
	Clients  int
	Requests int
	// Seed drives each client's request pattern (paths, demand
	// factors) via forked deterministic streams — wall-clock latencies
	// vary, the request mix does not.
	Seed uint64
	// DemandFraction is the probability a request is a POST /v1/demand
	// with a factor jittered in [0.95, 1.05] (default 0.05). The
	// jitter is mean-neutral, so hammering the API nudges but never
	// runs away with the simulated demand.
	DemandFraction float64
	// Stream, when set, adds one /v1/events subscriber for the
	// duration of the run and counts the events it receives.
	Stream bool
	// Client overrides the HTTP client (default: 10 s timeout).
	Client *http.Client

	// RequestTimeout bounds each individual request attempt (0 leaves
	// only the client's overall timeout). A timed-out attempt counts in
	// the report and is retried like any transport failure.
	RequestTimeout time.Duration
	// Retries is how many times a failed attempt (transport error,
	// timeout, 429, or 5xx) is retried before counting as an error.
	// 429 responses honor the server's Retry-After hint; everything
	// else backs off exponentially from Backoff with jitter drawn from
	// a dedicated per-client stream, so the request mix itself stays
	// seed-deterministic.
	Retries int
	// Backoff is the base retry delay (default 100 ms, doubling per
	// attempt, capped at 5 s, jittered ±50 %).
	Backoff time.Duration
}

// loadBackoffCap bounds one retry delay regardless of attempt count or
// Retry-After hints, so a misconfigured server cannot park the load
// generator.
const loadBackoffCap = 5 * time.Second

// LoadReport is what a load run measured.
type LoadReport struct {
	Requests int
	Errors   int
	ByPath   map[string]int
	// Retries counts re-attempts after failures; Timeouts the attempts
	// that hit the per-request deadline; Rejected the 429 responses the
	// admission gate shed (each retried attempt can add to all three).
	Retries  int
	Timeouts int
	Rejected int
	// Events is the number of telemetry events the Stream subscriber
	// received (0 when Stream was off); Reconnects how many times it had
	// to re-establish the stream and resume (?from=) after a broken
	// connection.
	Events     int
	Reconnects int
	// Latencies holds every completed request's client-observed
	// wall-clock seconds, in ascending order.
	Latencies []float64
	Elapsed   time.Duration
}

// Percentile returns the nearest-rank p-th percentile of the request
// latencies, p in [0, 100]: the smallest latency with at least p % of
// the requests at or below it, and 0 when none completed.
// Percentile(100) is the largest.
func (r *LoadReport) Percentile(p int) float64 {
	n := len(r.Latencies)
	if n == 0 {
		return 0
	}
	rank := (p*n + 99) / 100 // ⌈p·n/100⌉, exact in integers
	rank = max(1, min(rank, n))
	return r.Latencies[rank-1]
}

// Table renders the report for CLI output.
func (r *LoadReport) Table(title string) *metrics.Table {
	tb := metrics.NewTable(title, "metric", "value")
	tb.AddRow("requests", fmt.Sprintf("%d", r.Requests))
	tb.AddRow("errors", fmt.Sprintf("%d", r.Errors))
	tb.AddRow("retries", fmt.Sprintf("%d", r.Retries))
	tb.AddRow("timeouts", fmt.Sprintf("%d", r.Timeouts))
	tb.AddRow("rejected (429)", fmt.Sprintf("%d", r.Rejected))
	paths := make([]string, 0, len(r.ByPath))
	for p := range r.ByPath {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		tb.AddRow("  "+p, fmt.Sprintf("%d", r.ByPath[p]))
	}
	tb.AddRow("elapsed", fmt.Sprintf("%.2fs", r.Elapsed.Seconds()))
	if r.Requests > 0 && r.Elapsed > 0 {
		tb.AddRow("throughput", fmt.Sprintf("%.0f req/s", float64(r.Requests)/r.Elapsed.Seconds()))
	}
	for _, p := range []int{50, 95, 99} {
		tb.AddRow(fmt.Sprintf("latency p%d", p), fmt.Sprintf("%.2f ms", r.Percentile(p)*1e3))
	}
	tb.AddRow("latency max", fmt.Sprintf("%.2f ms", r.Percentile(100)*1e3))
	tb.AddRow("events streamed", fmt.Sprintf("%d", r.Events))
	tb.AddRow("stream reconnects", fmt.Sprintf("%d", r.Reconnects))
	return tb
}

type clientResult struct {
	errors    int
	retries   int
	timeouts  int
	rejected  int
	byPath    map[string]int
	latencies []float64
}

// RunLoad drives the daemon API with opts.Clients concurrent clients
// until opts.Requests requests have completed (or ctx cancels, which
// counts nothing as an error — the report covers what ran). A non-2xx
// response or transport failure counts as an error; the function
// itself only fails on setup problems.
func RunLoad(ctx context.Context, opts LoadOptions) (*LoadReport, error) {
	if opts.BaseURL == "" {
		return nil, fmt.Errorf("server: load needs a base URL")
	}
	clients := opts.Clients
	if clients <= 0 {
		clients = 8
	}
	total := opts.Requests
	if total <= 0 {
		total = 1000
	}
	if clients > total {
		clients = total
	}
	demandFrac := opts.DemandFraction
	if demandFrac == 0 {
		demandFrac = 0.05
	}
	hc := opts.Client
	if hc == nil {
		hc = &http.Client{Timeout: 10 * time.Second}
	}

	// How many servers the fleet has, for addressing demand POSTs.
	numServers, err := probeServers(ctx, hc, opts.BaseURL)
	if err != nil {
		return nil, err
	}

	// Fork one stream per client up front, in index order, so the
	// request mix is independent of scheduling. Jitter streams fork
	// after every mix stream, so enabling retries leaves the request
	// mix for a given seed untouched.
	root := dist.NewSource(opts.Seed)
	srcs := make([]*dist.Source, clients)
	for i := range srcs {
		srcs[i] = root.Fork()
	}
	jitters := make([]*dist.Source, clients)
	for i := range jitters {
		jitters[i] = root.Fork()
	}

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	events, reconnects := 0, 0
	var streamWG sync.WaitGroup
	if opts.Stream {
		ready := make(chan struct{})
		streamWG.Add(1)
		go func() {
			defer streamWG.Done()
			events, reconnects = streamEvents(runCtx, hc, opts.BaseURL, ready)
		}()
		select {
		case <-ready: // stream open before the hammering starts
		case <-runCtx.Done():
		}
	}

	results := make([]clientResult, clients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		n := total / clients
		if c < total%clients {
			n++
		}
		wg.Add(1)
		go func(c, n int) {
			defer wg.Done()
			results[c] = runClient(runCtx, hc, clientConfig{
				base:       opts.BaseURL,
				src:        srcs[c],
				jitter:     jitters[c],
				requests:   n,
				numServers: numServers,
				demandFrac: demandFrac,
				reqTimeout: opts.RequestTimeout,
				retries:    opts.Retries,
				backoff:    opts.Backoff,
			})
		}(c, n)
	}
	wg.Wait()
	elapsed := time.Since(start)
	cancel() // stop the event stream
	streamWG.Wait()

	report := &LoadReport{ByPath: map[string]int{}, Elapsed: elapsed, Events: events, Reconnects: reconnects}
	for _, r := range results {
		report.Errors += r.errors
		report.Retries += r.retries
		report.Timeouts += r.timeouts
		report.Rejected += r.rejected
		for p, n := range r.byPath {
			report.ByPath[p] += n
			report.Requests += n
		}
		report.Latencies = append(report.Latencies, r.latencies...)
	}
	slices.Sort(report.Latencies)
	return report, nil
}

func probeServers(ctx context.Context, hc *http.Client, base string) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/state", nil)
	if err != nil {
		return 0, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return 0, fmt.Errorf("server: probing %s: %w", base, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("server: probing %s: status %s", base, resp.Status)
	}
	var st struct {
		Servers int `json:"num_servers"`
	}
	if err := decodeBody(resp.Body, &st); err != nil {
		return 0, err
	}
	if st.Servers <= 0 {
		return 0, fmt.Errorf("server: daemon reports %d servers", st.Servers)
	}
	return st.Servers, nil
}

// clientConfig bundles one generator goroutine's parameters.
type clientConfig struct {
	base       string
	src        *dist.Source // request-mix stream
	jitter     *dist.Source // retry-backoff stream
	requests   int
	numServers int
	demandFrac float64
	reqTimeout time.Duration
	retries    int
	backoff    time.Duration
}

func runClient(ctx context.Context, hc *http.Client, cfg clientConfig) clientResult {
	res := clientResult{byPath: map[string]int{}}
	for i := 0; i < cfg.requests; i++ {
		if ctx.Err() != nil {
			return res
		}
		var (
			path string
			body []byte
		)
		switch r := cfg.src.Float64(); {
		case r < cfg.demandFrac:
			path = "/v1/demand"
			server := cfg.src.Intn(cfg.numServers+1) - 1 // -1 = fleet-wide
			factor := cfg.src.Uniform(0.95, 1.05)
			body = []byte(fmt.Sprintf(`{"server": %d, "factor": %.4f}`, server, factor))
		case r < cfg.demandFrac+0.10:
			path = "/healthz"
		case r < cfg.demandFrac+0.35:
			path = "/v1/stats"
		default:
			path = "/v1/state"
		}
		res.byPath[path]++
		start := time.Now()
		if err := res.request(ctx, hc, cfg, path, body); err != nil {
			res.errors++
			continue
		}
		// Latency is client-observed: it includes retries and backoff
		// sleeps, which is what a caller of the API actually waits.
		res.latencies = append(res.latencies, time.Since(start).Seconds())
	}
	return res
}

// request performs one logical request with up to cfg.retries
// re-attempts, counting timeouts, 429 rejections, and retries as it
// goes. 429 honors the server's Retry-After hint; other failures back
// off exponentially with jitter.
func (res *clientResult) request(ctx context.Context, hc *http.Client, cfg clientConfig, path string, body []byte) error {
	for attempt := 0; ; attempt++ {
		status, retryAfter, err := doRequest(ctx, hc, cfg, path, body)
		if err == nil && status >= 200 && status <= 299 {
			return nil
		}
		if isTimeout(err) {
			res.timeouts++
		}
		if status == http.StatusTooManyRequests {
			res.rejected++
		}
		retryable := err != nil || status == http.StatusTooManyRequests || status >= 500
		if !retryable || attempt >= cfg.retries || ctx.Err() != nil {
			if err == nil {
				err = fmt.Errorf("%s: status %d", path, status)
			}
			return err
		}
		res.retries++
		if !sleepBackoff(ctx, cfg, attempt, retryAfter) {
			return fmt.Errorf("%s: cancelled during retry backoff", path)
		}
	}
}

// sleepBackoff waits before a retry: the server's Retry-After hint when
// it gave one, otherwise exponential backoff from cfg.backoff, both
// jittered ±50 % and capped. Returns false if ctx ended first.
func sleepBackoff(ctx context.Context, cfg clientConfig, attempt int, retryAfter time.Duration) bool {
	delay := retryAfter
	if delay <= 0 {
		base := cfg.backoff
		if base <= 0 {
			base = 100 * time.Millisecond
		}
		delay = base << attempt
	}
	if delay > loadBackoffCap {
		delay = loadBackoffCap
	}
	delay = time.Duration(float64(delay) * (0.5 + cfg.jitter.Float64()))
	t := time.NewTimer(delay)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

// isTimeout reports whether an attempt failed on a deadline (the
// per-request timeout or a transport-level one).
func isTimeout(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, context.DeadlineExceeded) {
		return true
	}
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// doRequest performs one attempt. A transport failure returns err; an
// HTTP response returns its status and any Retry-After hint with a nil
// error — the caller classifies.
func doRequest(ctx context.Context, hc *http.Client, cfg clientConfig, path string, body []byte) (status int, retryAfter time.Duration, err error) {
	if cfg.reqTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cfg.reqTimeout)
		defer cancel()
	}
	method := http.MethodGet
	var rd io.Reader
	if body != nil {
		method = http.MethodPost
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, cfg.base+path, rd)
	if err != nil {
		return 0, 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := hc.Do(req)
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return 0, 0, err
	}
	return resp.StatusCode, parseRetryAfter(resp.Header.Get("Retry-After")), nil
}

// parseRetryAfter turns a Retry-After header into a backoff duration.
// Servers in the wild send garbage — empty strings, HTTP dates, floats,
// negatives — and a load generator must treat all of it as "no hint"
// (zero), never panic or sleep on a bogus value.
func parseRetryAfter(header string) time.Duration {
	secs, err := strconv.Atoi(strings.TrimSpace(header))
	if err != nil || secs < 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}

// streamEvents subscribes to /v1/events and counts events until ctx
// cancels. A broken stream — daemon restart, failover cutover, link
// loss — is survived, not surrendered to: the subscriber reconnects and
// resumes with ?from=<last tick heard>, replaying the daemon's retained
// history so tick coverage stays gapless (the boundary tick itself may
// be double-counted; a resumed count errs toward overlap, never holes).
// It closes ready once the first connection attempt resolves.
func streamEvents(ctx context.Context, hc *http.Client, base string, ready chan<- struct{}) (events, reconnects int) {
	// Streaming must outlive the per-request timeout of the pooled
	// client; rely on ctx for cancellation instead.
	streamClient := &http.Client{Transport: hc.Transport}
	readyOnce := sync.OnceFunc(func() { close(ready) })
	defer readyOnce()

	lastTick := -1
	connects := 0
	for {
		if ctx.Err() != nil {
			return events, reconnects
		}
		url := base + "/v1/events"
		if lastTick >= 0 {
			url += "?from=" + strconv.Itoa(lastTick)
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
		if err != nil {
			return events, reconnects
		}
		resp, err := streamClient.Do(req)
		readyOnce()
		if err != nil {
			if !sleepStream(ctx) {
				return events, reconnects
			}
			continue
		}
		if resp.StatusCode != http.StatusOK {
			// The daemon itself refused the subscription; retrying the same
			// request cannot end differently.
			resp.Body.Close()
			return events, reconnects
		}
		connects++
		if connects > 1 {
			reconnects++
		}
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
		for sc.Scan() {
			line := bytes.TrimSpace(sc.Bytes())
			if len(line) == 0 {
				continue
			}
			events++
			var ev struct {
				Tick int `json:"tick"`
			}
			if json.Unmarshal(line, &ev) == nil && ev.Tick > lastTick {
				lastTick = ev.Tick
			}
		}
		resp.Body.Close()
		if !sleepStream(ctx) {
			return events, reconnects
		}
	}
}

// sleepStream pauses briefly between stream reconnect attempts; false
// means ctx ended first.
func sleepStream(ctx context.Context) bool {
	t := time.NewTimer(200 * time.Millisecond)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

func decodeBody(r io.Reader, dst any) error {
	data, err := io.ReadAll(r)
	if err != nil {
		return err
	}
	return json.Unmarshal(data, dst)
}
