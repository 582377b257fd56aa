package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"willow/internal/obs"
	"willow/internal/server"
	"willow/internal/telemetry"
)

// The live workload, live-read-1k, is an in-process willowd: the daemon,
// its HTTP surface on a real 127.0.0.1 listener, the tick pacer and the
// clients all share one process, so no second process competes for the
// two cores. One closed-loop GET /v1/state reader is the measured
// client and one GET /v1/events subscriber follows the stream. A paced
// writer keeps the write path live: it sends POST /v1/demand through the
// daemon's handler in process, so the request is decoded, admitted by
// the gate and made durable in a WAL that fsyncs every ack, without a
// third connection.
//
// The write path is not a workload of its own. Acks wait for fsync, and
// on the shared reference host the disk's fsync latency swung for
// minutes at a time: two closed-loop writers fell from 6.7k to 2.1k
// acks/s and their p99 rose from 1.8 to 8.2 ms within one ten-run set,
// while the reads in the next set did not move.

const (
	// liveTick is the tick pacer's period.
	liveTick = 5 * time.Millisecond
	// liveWritePeriod is the paced writer's period: one mutation every
	// eighth tick keeps the lock it holds through fsync off most reads.
	liveWritePeriod = 8 * liveTick
	// liveWarmupTicks are fast-forwarded during set-up: sixteen 28-tick
	// η1/η2 cycles of real controller work, so setup_s measures more
	// than opening a listener.
	liveWarmupTicks = 448
	// liveWarmup is client time discarded before measuring: connections
	// open and the daemon's buffers reach their steady size.
	liveWarmup = 500 * time.Millisecond
	// liveSetups is how many times a live run sets up; setup_s is the
	// median.
	liveSetups = 9
	// eventBuffer is the subscriber's hub buffer: a few seconds of
	// events, so a scheduling hiccup on the two cores never drops one.
	eventBuffer = 1 << 16
)

func liveSpec(seed uint64) server.Spec {
	return server.Spec{
		Util: 0.5, Fanout: []int{10, 10, 10}, Ticks: 1 << 22, Seed: seed,
		Supply: "constant", LeaseTicks: 8, Sensing: true,
	}
}

// liveSession is one set-up daemon serving HTTP.
type liveSession struct {
	d       *server.Daemon
	tracer  *serveTracer
	srv     *http.Server
	served  chan error
	url     string
	wal     *server.WAL
	walPath string
	walBase int64 // WAL bytes before the first mutation
}

// openLive builds and warms a daemon, attaches its WAL and starts
// serving. build is the server.New time alone.
func openLive(seed uint64, rep int) (s *liveSession, build time.Duration, err error) {
	start := time.Now()
	d, err := server.New(liveSpec(seed))
	if err != nil {
		return nil, 0, err
	}
	build = time.Since(start)
	d.StepN(liveWarmupTicks)
	s = &liveSession{d: d}
	s.walPath = filepath.Join(workDir, "wal", fmt.Sprintf("%d-%d.wal", os.Getpid(), rep))
	if err := os.MkdirAll(filepath.Dir(s.walPath), 0o755); err != nil {
		return nil, 0, err
	}
	if s.wal, err = server.CreateWAL(s.walPath, d.Spec(), nil); err != nil {
		return nil, 0, err
	}
	d.AttachWAL(s.wal)
	fi, err := os.Stat(s.walPath)
	if err != nil {
		s.close()
		return nil, 0, err
	}
	s.walBase = fi.Size()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.close()
		return nil, 0, err
	}
	s.tracer = newServeTracer(server.NewHandlerOpts(d, server.HandlerOptions{}))
	s.srv = &http.Server{Handler: s.tracer}
	s.served = make(chan error, 1)
	go func() { s.served <- s.srv.Serve(ln) }()
	s.url = "http://" + ln.Addr().String()
	return s, build, nil
}

// close stops serving and removes the WAL. The hub closes first so
// event streams end and the server can stop.
func (s *liveSession) close() {
	s.d.Close()
	if s.srv != nil {
		_ = s.srv.Close() // the benchmark is done with every connection
		<-s.served
	}
	if s.wal != nil {
		_ = s.wal.Close()
		_ = os.Remove(s.walPath)
	}
}

// op is one client request: its wall-clock span and whether it
// succeeded.
type op struct {
	interval
	ok bool
}

// clientLog is what one closed-loop client recorded.
type clientLog struct {
	ops  []op
	acks int   // 2xx responses over the whole run
	bad  error // first response that failed its content check
}

// tickPacer paces Daemon.Step and logs each call's span and the hub's
// published-event count after it.
type tickPacer struct {
	steps     []interval
	published []int64
}

func (t *tickPacer) run(d *server.Daemon, stop <-chan struct{}, now func() int64) {
	tk := time.NewTicker(liveTick)
	defer tk.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tk.C:
		}
		t0 := now()
		d.Step()
		t1 := now()
		pub, _, _ := d.Hub().Stats()
		t.steps = append(t.steps, interval{t0, t1})
		t.published = append(t.published, pub)
	}
}

// subscriber follows GET /v1/events and records, per tick, how many
// events arrived and when the last one did.
type subscriber struct {
	first  int     // tick of index 0
	counts []int   // events per tick
	last   []int64 // arrival of each tick's latest event
	early  int     // events stamped before the first tick
	err    error
	total  atomic.Int64 // events received, read while following
}

func (s *subscriber) follow(body io.Reader, now func() int64) {
	br := bufio.NewReaderSize(body, 64<<10)
	for {
		line, err := br.ReadSlice('\n')
		if err != nil {
			return // stream closed by cancellation or shutdown
		}
		t := now()
		tick, err := eventTick(line)
		if err != nil {
			s.err = err
			return
		}
		i := tick - s.first
		if i < 0 {
			s.early++
			continue
		}
		for len(s.counts) <= i {
			s.counts = append(s.counts, 0)
			s.last = append(s.last, 0)
		}
		s.counts[i]++
		s.last[i] = t
		s.total.Add(1)
	}
}

// subscribe opens GET /v1/events and follows it on a new goroutine until
// ctx ends, closing done when that goroutine has returned. first is the
// tick the daemon steps next.
func subscribe(ctx context.Context, client *http.Client, url string, first int, now func() int64, done chan<- struct{}) (*subscriber, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/v1/events?buffer="+strconv.Itoa(eventBuffer), nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		return nil, fmt.Errorf("GET /v1/events: %s", resp.Status)
	}
	sub := &subscriber{first: first}
	go func() {
		defer close(done)
		defer resp.Body.Close()
		sub.follow(resp.Body, now)
	}()
	return sub, nil
}

// eventTick reads the tick of one encoded event. telemetry.Event
// encodes its tick first, so the common case needs no JSON decoding,
// which keeps the subscriber from competing with the daemon for the
// cores; any other shape goes through telemetry.Decode.
func eventTick(line []byte) (int, error) {
	if rest, ok := bytes.CutPrefix(line, []byte(`{"t":`)); ok {
		if end := bytes.IndexByte(rest, ','); end > 0 {
			if tick, err := strconv.Atoi(string(rest[:end])); err == nil {
				return tick, nil
			}
		}
	}
	ev, err := telemetry.Decode(line)
	return ev.Tick, err
}

// matchEvents compares, tick by tick, the events the subscriber saw with
// those the hub published during each paced tick, pub0 being the hub's
// count before the first. It returns one message per mismatch, and the
// event delay (ms) of each tick that matched, published events and
// started at a time keep accepts: from the return of its Daemon.Step to
// the arrival of its last event.
func matchEvents(sub *subscriber, pacer *tickPacer, pub0 int64, keep func(int64) bool) (delays []float64, gaps []string) {
	prev := pub0
	for i, pub := range pacer.published {
		want, got := int(pub-prev), 0
		prev = pub
		if i < len(sub.counts) {
			got = sub.counts[i]
		}
		if got != want {
			gaps = append(gaps, fmt.Sprintf("tick %d: subscriber saw %d events, hub published %d", sub.first+i, got, want))
			continue
		}
		if want > 0 && keep(pacer.steps[i].start) {
			delays = append(delays, ms(sub.last[i]-pacer.steps[i].end))
		}
	}
	if len(sub.counts) > len(pacer.published) {
		gaps = append(gaps, fmt.Sprintf("subscriber saw events for %d ticks, the pacer stepped %d", len(sub.counts), len(pacer.published)))
	}
	return delays, gaps
}

// writer sends POST /v1/demand to h in process, one request every
// liveWritePeriod. Its factors are mean-neutral: it halves one server's
// demand, then doubles it back, so the fleet's load stays where set-up
// left it (0.5 and 2 are exact in binary, so the product is exactly 1).
func writer(h http.Handler, servers int, rng *rand.Rand, stop *atomic.Bool, now func() int64) *clientLog {
	log := &clientLog{}
	tk := time.NewTicker(liveWritePeriod)
	defer tk.Stop()
	target, halve := 0, true
	for !stop.Load() {
		<-tk.C
		factor := 2.0
		if halve {
			target, factor = rng.IntN(servers), 0.5
		}
		body := []byte(`{"server":` + strconv.Itoa(target) + `,"factor":` + strconv.FormatFloat(factor, 'g', -1, 64) + `}`)
		t0 := now()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/demand", bytes.NewReader(body)))
		var ack struct {
			Tick   int     `json:"tick"`
			Server int     `json:"server"`
			Factor float64 `json:"factor"`
		}
		ok := rec.Code/100 == 2 && json.Unmarshal(rec.Body.Bytes(), &ack) == nil
		log.ops = append(log.ops, op{interval{t0, now()}, ok})
		if !ok {
			continue
		}
		log.acks++
		if (ack.Server != target || ack.Factor != factor) && log.bad == nil {
			log.bad = fmt.Errorf("ack %+v for server %d factor %v", ack, target, factor)
		}
		halve = !halve
	}
	return log
}

// reader is a closed-loop GET /v1/state client. It decodes every
// response and checks the fleet size, tick order and the true cap.
func reader(client *http.Client, url string, servers int, stop *atomic.Bool, now func() int64) *clientLog {
	log := &clientLog{}
	lastTick := -1
	for !stop.Load() {
		t0 := now()
		resp, err := client.Get(url + "/v1/state")
		var st struct {
			Tick    int `json:"tick"`
			Servers int `json:"num_servers"`
			States  []struct {
				Temp float64 `json:"temp"`
			} `json:"servers"`
		}
		ok := false
		if err == nil {
			derr := json.NewDecoder(resp.Body).Decode(&st)
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			ok = resp.StatusCode/100 == 2 && derr == nil
		}
		log.ops = append(log.ops, op{interval{t0, now()}, ok})
		if !ok {
			continue
		}
		log.acks++
		hot := 0.0
		for _, s := range st.States {
			hot = max(hot, s.Temp)
		}
		if (st.Servers != servers || len(st.States) != servers || st.Tick < lastTick || hot > trueCap+1e-6) && log.bad == nil {
			log.bad = fmt.Errorf("state at tick %d (previous %d): %d servers, %d rows, hottest %v °C",
				st.Tick, lastTick, st.Servers, len(st.States), hot)
		}
		lastTick = st.Tick
	}
	return log
}

// scrape fetches and parses /metrics.
func scrape(client *http.Client, url string) (*obs.Scrape, error) {
	resp, err := client.Get(url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	return obs.ParseText(resp.Body)
}

// livePhase is one measured stretch [from, to) of a live run.
type livePhase struct {
	from, to int64
}

func (ph livePhase) has(t int64) bool { return t >= ph.from && t < ph.to }

// samples returns the client latencies (ms) of the successful ops that
// started in the phase, and their rate over the phase.
func (ph livePhase) samples(logs []*clientLog) (lat []float64, perS float64) {
	for _, l := range logs {
		for _, o := range l.ops {
			if o.ok && ph.has(o.start) {
				lat = append(lat, ms(o.end-o.start))
			}
		}
	}
	return lat, ratio(float64(len(lat)), float64(ph.to-ph.from)/float64(time.Second))
}

func runLive(p params) (*result, error) {
	r := newResult()
	var s *liveSession
	var setups, builds []float64
	for rep := 0; rep < liveSetups; rep++ {
		if s != nil {
			s.close()
		}
		runtime.GC()
		start := time.Now()
		var build time.Duration
		var err error
		if s, build, err = openLive(p.seed, rep); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		builds = append(builds, build.Seconds())
	}
	defer s.close()
	servers := s.d.Spec().Servers()

	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4, DisableCompression: true}}
	defer client.CloseIdleConnections()
	epoch := time.Now()
	now := func() int64 { return int64(time.Since(epoch)) }

	// The subscriber attaches before the first paced tick, so it must
	// see every event the paced ticks publish.
	subDone := make(chan struct{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sub, err := subscribe(ctx, client, s.url, s.d.NextTick(), now, subDone)
	if err != nil {
		return nil, err
	}
	pub0, _, _ := s.d.Hub().Stats()
	stats0 := s.d.Stats()

	var pacer tickPacer
	stopPacer := make(chan struct{})
	var pacerDone sync.WaitGroup
	pacerDone.Add(1)
	go func() {
		defer pacerDone.Done()
		pacer.run(s.d, stopPacer, now)
	}()

	var stopClients atomic.Bool
	var readLog, writeLog *clientLog
	var clients sync.WaitGroup
	clients.Add(2)
	go func() {
		defer clients.Done()
		readLog = reader(client, s.url, servers, &stopClients, now)
	}()
	go func() {
		defer clients.Done()
		writeLog = writer(s.tracer, servers, rand.New(rand.NewPCG(p.seed, 0)), &stopClients, now)
	}()

	// Timeline: warm-up, the untraced phase, then (traced runs only) the
	// traced phase with the handler timer on, bracketed by two scrapes.
	budget := p.budget()
	if p.traced {
		budget /= 2
	}
	plain := livePhase{from: int64(liveWarmup)}
	plain.to = plain.from + int64(budget)
	time.Sleep(time.Duration(plain.to - now()))
	traced := livePhase{from: plain.to, to: plain.to}
	var before, after *obs.Scrape
	var mem0, mem1 runtime.MemStats
	var stats1 server.StatsView
	if p.traced {
		if before, err = scrape(client, s.url); err != nil {
			return nil, err
		}
		runtime.ReadMemStats(&mem0)
		s.tracer.enable(true)
		traced.from = now()
		time.Sleep(budget)
		traced.to = now()
		s.tracer.enable(false)
		runtime.ReadMemStats(&mem1)
		stats1 = s.d.Stats()
		if after, err = scrape(client, s.url); err != nil {
			return nil, err
		}
	}
	stopClients.Store(true)
	clients.Wait()
	close(stopPacer)
	pacerDone.Wait()
	// Let the stream drain what the last ticks published.
	want := pacer.published[len(pacer.published)-1] - pub0
	for deadline := time.Now().Add(2 * time.Second); sub.total.Load() < want && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	cancel()
	<-subDone
	end, err := scrape(client, s.url)
	if err != nil {
		return nil, err
	}

	// Correctness.
	var attempted, failed int64
	whole := livePhase{from: plain.from, to: traced.to}
	for _, l := range []*clientLog{readLog, writeLog} {
		r.check(l.bad == nil, "%v", l.bad)
		for _, o := range l.ops {
			if whole.has(o.start) {
				attempted++
				if !o.ok {
					failed++
				}
			}
		}
	}
	res := s.d.Result()
	r.check(res.LimitViolationTicks == 0 && res.MaxTemp <= trueCap+1e-6,
		"true cap broken: max temp %v °C, %d violating server-ticks", res.MaxTemp, res.LimitViolationTicks)
	wal, st, err := server.OpenWAL(s.walPath)
	if err != nil {
		return nil, err
	}
	wal.Close()
	r.check(writeLog.acks > 0, "the writer got no ack")
	r.check(len(st.Mutations) == writeLog.acks, "WAL holds %d mutations, the writer got %d acks", len(st.Mutations), writeLog.acks)
	fi, err := os.Stat(s.walPath)
	if err != nil {
		return nil, err
	}
	walBytes := fi.Size() - s.walBase
	report := plain
	if p.traced {
		report = traced
	}
	r.check(sub.err == nil, "event stream: %v", sub.err)
	r.check(sub.early == 0, "%d events stamped before the subscriber's first tick", sub.early)
	delays, gaps := matchEvents(sub, &pacer, pub0, report.has) // event delay (ms) per tick in the reported phase
	for _, g := range gaps {
		r.check(false, "%s", g)
	}
	dropped, _ := end.Value("willow_hub_dropped_total")
	attempted += int64(want)
	failed += int64(dropped)
	r.Attempted, r.Failed = attempted, failed

	// ticksIn counts the paced ticks that started in the phase, their
	// total Daemon.Step time, and the tick rate over their span.
	ticksIn := func(ph livePhase) (n int, stepNS int64, perS float64) {
		first, last := ph.to, ph.from
		for _, st := range pacer.steps {
			if ph.has(st.start) {
				n++
				stepNS += st.end - st.start
				first, last = min(first, st.start), max(last, st.start)
			}
		}
		return n, stepNS, ratio(float64(n-1), float64(last-first)/float64(time.Second))
	}
	reads := []*clientLog{readLog}
	lat, opsPerS := report.samples(reads)
	if len(lat) == 0 {
		return nil, errors.New("no read completed")
	}
	if !p.traced {
		_, _, ticksPerS := ticksIn(plain)
		r.set("setup_s", "s", median(setups))
		r.set("latency_p50_ms", "ms", median(lat))
		r.set("latency_tail_ms", "ms", quantile(lat, 0.99))
		// The request logs are the benchmark's and grow with the op
		// count; release them so rss_mb is the daemon's footprint.
		readLog, writeLog, reads, lat, pacer, sub = nil, nil, nil, nil, tickPacer{}, nil
		r.set("rss_mb", "MB", retainedRSSMB())
		runtime.KeepAlive(s)
		r.set("ops_per_s", "1/s", opsPerS)
		r.set("server_ticks_per_s", "1/s", float64(servers)*ticksPerS)
		return r, nil
	}

	ticks, stepNS, _ := ticksIn(traced)
	phaseSum := func(phase string) (sumS, count float64) {
		return histDelta(before, after, "willow_tick_phase_seconds", obs.Label{Name: "phase", Value: phase})
	}
	obsS, obsN := phaseSum("observe")
	allocS, allocN := phaseSum("allocate")
	consS, consN := phaseSum("consume")
	pubS, pubN := histDelta(before, after, "willow_hub_publish_seconds")
	walS, walN := histDelta(before, after, "willow_wal_append_seconds")
	var waitNS int64
	var clientMS []float64
	for _, o := range readLog.ops {
		if o.ok && traced.has(o.start) {
			waitNS += overlap(pacer.steps, o.interval)
			clientMS = append(clientMS, ms(o.end-o.start))
		}
	}
	shed, _ := end.Value("willow_admission_shed_total")
	migrated := stats1.DemandMigrations + stats1.ConsolidationMigrations - stats0.DemandMigrations - stats0.ConsolidationMigrations

	setLayerDefaults(r)
	r.set("cluster.build_s", "s", median(builds))
	r.set("core.observe_ms", "ms", 1000*ratio(obsS, obsN))
	r.set("core.allocate_ms", "ms", 1000*ratio(allocS, allocN))
	r.set("core.consume_ms", "ms", 1000*ratio(consS, consN))
	r.set("core.rest_ms", "ms", ratio(ms(stepNS)-1000*(obsS+allocS+consS), float64(ticks)))
	r.set("core.migrations_per_tick", "count", ratio(float64(migrated), float64(ticks)))
	r.set("core.events_per_tick", "count", ratio(counterDelta(before, after, "willow_hub_published_total"), counterDelta(before, after, "willow_tick")))
	r.set("hub.publish_us", "us", 1e6*ratio(pubS, pubN))
	r.set("hub.dropped", "count", dropped)
	if len(delays) > 0 {
		r.set("hub.event_delay_p50_ms", "ms", median(delays))
		r.set("hub.event_delay_p99_ms", "ms", quantile(delays, 0.99))
	}
	r.set("server.step_ms", "ms", ratio(ms(stepNS), float64(ticks)))
	r.set("server.tick_wait_ms", "ms", ratio(ms(waitNS), float64(len(clientMS))))
	r.set("server.serve_ms.demand", "ms", s.tracer.meanMS("/v1/demand"))
	r.set("server.serve_ms.state", "ms", s.tracer.meanMS("/v1/state"))
	r.set("wal.append_ms", "ms", 1000*ratio(walS, walN))
	r.set("wal.bytes_per_ack", "bytes", ratio(float64(walBytes), float64(writeLog.acks)))
	r.set("go.alloc_bytes_per_op", "bytes", ratio(float64(mem1.TotalAlloc-mem0.TotalAlloc), float64(len(clientMS))))
	r.set("http.transport_ms", "ms", mean(clientMS)-s.tracer.meanMS("/v1/state"))
	r.set("gate.shed_ratio", "ratio", ratio(shed, float64(attempted)))
	plainLat, _ := plain.samples(reads)
	r.set("trace.overhead_ms", "ms", median(lat)-median(plainLat))
	return r, nil
}
