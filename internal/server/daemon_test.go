package server

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"willow/internal/cluster"
	"willow/internal/telemetry"
)

// testSpec is small enough to step thousands of ticks in tests but
// big enough to exercise the full hierarchy (3 levels, 6 servers).
func testSpec() Spec {
	return Spec{
		Util:   0.6,
		Fanout: []int{2, 3},
		Ticks:  200,
		Warmup: 50,
		Seed:   42,
		Supply: "sine",
	}
}

func encodeStream(t *testing.T, events []telemetry.Event) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, e := range events {
		line, err := telemetry.Encode(e)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(line)
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

// wireSnapshot round-trips a snapshot through its encoding, as a
// restart or POST /v1/snapshot would.
func wireSnapshot(t *testing.T, snap Snapshot) Snapshot {
	t.Helper()
	data, err := snap.encode()
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeSnapshot(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	return back
}

// sameResult compares run measurements with Config zeroed (it carries
// the non-comparable Sink).
func sameResult(t *testing.T, a, b *cluster.Result, label string) {
	t.Helper()
	ca, cb := *a, *b
	ca.Config, cb.Config = cluster.Config{}, cluster.Config{}
	if !reflect.DeepEqual(ca, cb) {
		t.Fatalf("%s: results differ", label)
	}
}

// TestFastForwardMatchesOfflineRun is the determinism pin: a daemon in
// fast-forward produces the byte-identical event stream and the same
// Result as the offline cluster.Run on the same parameters — the live
// control plane and the batch simulator are one code path. Each case
// binds its spec from command-line flags through RegisterFlags, as
// willow-sim and willowd do.
func TestFastForwardMatchesOfflineRun(t *testing.T) {
	csv := filepath.Join(t.TempDir(), "supply.csv")
	if err := os.WriteFile(csv, []byte("time,watts\n0,2700\n1,1900\n2,1500\n3,2400\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		nil,
		{"-chaos", "light"},
		{"-chaos", "sensor-heavy", "-policy", "mpc", "-energy"},
		{"-supply", "file:" + csv},
	} {
		spec := testSpec()
		fs := flag.NewFlagSet("spec", flag.ContinueOnError)
		spec.RegisterFlags(fs)
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}

		cfg, err := spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		var offline telemetry.Buffer
		cfg.Sink = &offline
		resOffline, err := cluster.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}

		d, err := New(spec)
		if err != nil {
			t.Fatal(err)
		}
		var live telemetry.Buffer
		d.SetSink(&live)
		if err := d.Run(context.Background(), 0); err != nil {
			t.Fatal(err)
		}
		resLive := d.Result()

		offBytes := encodeStream(t, offline.Events)
		liveBytes := encodeStream(t, live.Events)
		if !bytes.Equal(offBytes, liveBytes) {
			t.Fatalf("%q: daemon event stream diverges from offline run (%d vs %d bytes)",
				args, len(liveBytes), len(offBytes))
		}
		if len(offline.Events) == 0 {
			t.Fatalf("%q: offline run published no events", args)
		}
		sameResult(t, resOffline, resLive, "fast-forward vs offline")
	}
}

// TestSnapshotRestoreRoundTrip mutates a live run (demand scaling,
// live chaos), snapshots it mid-flight, and asserts the restored
// daemon is indistinguishable: identical state at the boundary,
// identical next-tick state, and a byte-identical event stream to
// completion. It runs with energy telemetry off and on: a restored
// daemon replays silently, and its energy windows must still advance
// through the replay so its first post-restore window matches the live
// one.
func TestSnapshotRestoreRoundTrip(t *testing.T) {
	for _, energy := range []bool{false, true} {
		t.Run(fmt.Sprintf("energy=%v", energy), func(t *testing.T) { snapshotRestoreRoundTrip(t, energy) })
	}
}

func snapshotRestoreRoundTrip(t *testing.T, energy bool) {
	spec := testSpec()
	spec.LeaseTicks = 8 // live PMU chaos needs leases armed at boot
	spec.Energy = energy

	d, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	d.StepN(50)
	if _, err := d.ScaleDemand(3, 1.5); err != nil {
		t.Fatal(err)
	}
	d.StepN(10)
	if _, _, err := d.InjectChaos("light", 99); err != nil {
		t.Fatal(err)
	}
	d.StepN(20)
	// A mutation at the snapshot boundary itself must replay too.
	if _, err := d.ScaleDemand(-1, 0.9); err != nil {
		t.Fatal(err)
	}
	snap := d.Snapshot()
	if snap.Tick != 80 || len(snap.Journal) != 3 {
		t.Fatalf("snapshot at tick %d with %d journal entries, want 80 with 3", snap.Tick, len(snap.Journal))
	}

	// Round-trip through the encoding: what the API serves is what
	// restores.
	r, err := Restore(wireSnapshot(t, snap))
	if err != nil {
		t.Fatal(err)
	}

	compareState := func(label string) {
		t.Helper()
		sd, _ := json.Marshal(d.State())
		sr, _ := json.Marshal(r.State())
		if !bytes.Equal(sd, sr) {
			t.Fatalf("%s: state diverges\nlive:     %s\nrestored: %s", label, sd, sr)
		}
	}
	compareState("at snapshot boundary")

	d.StepN(1)
	r.StepN(1)
	compareState("one tick after restore")

	var liveTail, restoredTail telemetry.Buffer
	d.SetSink(&liveTail)
	r.SetSink(&restoredTail)
	if err := d.Run(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	if err := r.Run(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeStream(t, liveTail.Events), encodeStream(t, restoredTail.Events)) {
		t.Fatalf("post-restore event streams diverge")
	}
	sameResult(t, d.Result(), r.Result(), "restored run completion")
}

func TestRestoreRejectsBadSnapshots(t *testing.T) {
	base := func() Snapshot {
		return Snapshot{Spec: testSpec(), Tick: 10}
	}
	cases := []struct {
		name string
		mut  func(*Snapshot)
	}{
		{"tick beyond horizon", func(s *Snapshot) { s.Tick = 10_000 }},
		{"negative tick", func(s *Snapshot) { s.Tick = -1 }},
		{"journal out of order", func(s *Snapshot) {
			s.Journal = []Mutation{
				{Tick: 5, Kind: "demand", Server: -1, Factor: 1.1},
				{Tick: 3, Kind: "demand", Server: -1, Factor: 1.1},
			}
		}},
		{"journal beyond tick", func(s *Snapshot) {
			s.Journal = []Mutation{{Tick: 11, Kind: "demand", Server: -1, Factor: 1.1}}
		}},
		{"unknown mutation kind", func(s *Snapshot) {
			s.Journal = []Mutation{{Tick: 2, Kind: "meteor"}}
		}},
		{"bad spec", func(s *Snapshot) { s.Spec.Util = 0 }},
		{"spec without ticks", func(s *Snapshot) { s.Spec.Ticks = 0 }},
	}
	for _, tc := range cases {
		snap := base()
		tc.mut(&snap)
		if _, err := Restore(snap); err == nil {
			t.Errorf("%s: Restore accepted a bad snapshot", tc.name)
		}
	}
}

func TestScaleDemandValidation(t *testing.T) {
	d, err := New(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		server int
		factor float64
	}{
		{99, 1.0}, {-2, 1.0}, {0, -1.0},
	} {
		if _, err := d.ScaleDemand(tc.server, tc.factor); err == nil {
			t.Errorf("ScaleDemand(%d, %v) accepted", tc.server, tc.factor)
		}
	}
	if len(d.Snapshot().Journal) != 0 {
		t.Fatalf("rejected mutations were journaled")
	}
	if _, err := d.ScaleDemand(-1, 1.2); err != nil {
		t.Fatal(err)
	}
	if got := len(d.Snapshot().Journal); got != 1 {
		t.Fatalf("journal has %d entries, want 1", got)
	}
}

func TestInjectChaosTakesEffect(t *testing.T) {
	spec := testSpec()
	spec.LeaseTicks = 8
	d, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	d.StepN(20)
	plan, tick, err := d.InjectChaos("heavy", 7)
	if err != nil {
		t.Fatal(err)
	}
	if tick != 20 {
		t.Fatalf("injected at tick %d, want 20", tick)
	}
	events := len(plan.ServerFailures) + len(plan.PMUFailures) + len(plan.LossWindows)
	if events == 0 {
		t.Fatalf("heavy chaos expanded to an empty plan")
	}
	if err := d.Run(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	st := d.Stats()
	if st.Failures == 0 && st.PMUFailures == 0 {
		t.Fatalf("live chaos injected but no failures happened (plan had %d events)", events)
	}

	// Horizon exhausted: no more chaos.
	if _, _, err := d.InjectChaos("light", 1); err == nil {
		t.Fatalf("InjectChaos accepted after run completion")
	}
}

func TestInjectSensorChaosLive(t *testing.T) {
	spec := testSpec()
	spec.Sensing = true
	d, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	d.StepN(10)
	plan, _, err := d.InjectChaos("sensor-heavy", 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.SensorFaults) == 0 {
		t.Fatalf("heavy sensor spec expanded to no fault windows")
	}
	if len(plan.ServerFailures)+len(plan.PMUFailures)+len(plan.LossWindows) != 0 {
		t.Fatalf("sensor-only injection produced non-sensor faults")
	}
	if err := d.Run(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	if st := d.Stats(); st.SensorFaults == 0 {
		t.Fatalf("sensor chaos injected but no faults recorded")
	}
}

func TestHubBoundedFanout(t *testing.T) {
	h := newHub[telemetry.Event](false)
	fast := h.Subscribe(16)
	slow := h.Subscribe(2)
	for i := 0; i < 5; i++ {
		h.Publish(telemetry.Event{Tick: i, Kind: telemetry.KindBudgetChange})
	}
	published, dropped, subs := h.Stats()
	if published != 5 || subs != 2 {
		t.Fatalf("published=%d subs=%d, want 5 and 2", published, subs)
	}
	if st := h.SubscriberStats(); dropped != 3 || st[1].Dropped != 3 {
		t.Fatalf("dropped=%d (slow %d), want 3 for the buffer-2 subscriber", dropped, st[1].Dropped)
	}
	if len(fast.C) != 5 || len(slow.C) != 2 {
		t.Fatalf("buffers hold %d and %d, want 5 and 2", len(fast.C), len(slow.C))
	}
	if (<-slow.C).Tick != 0 {
		t.Fatalf("slow subscriber lost the oldest event instead of the newest")
	}

	h.Unsubscribe(slow)
	h.Unsubscribe(slow) // idempotent
	for range slow.C {  // buffered events drain, then the channel closes
	}

	h.Close()
	h.Close() // idempotent
	for range fast.C {
	}
	late := h.Subscribe(4)
	if _, ok := <-late.C; ok {
		t.Fatalf("subscription on a closed hub delivered an event")
	}
	h.Publish(telemetry.Event{}) // no-op, must not panic
}

// TestSlowSubscriberNeverStallsTicks pins the hub's core guarantee:
// a subscriber that never reads cannot block the tick loop.
func TestSlowSubscriberNeverStallsTicks(t *testing.T) {
	d, err := New(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	stuck := d.Hub().Subscribe(1)
	defer d.Hub().Unsubscribe(stuck)
	if err := d.Run(context.Background(), 0); err != nil { // would deadlock if Publish blocked
		t.Fatal(err)
	}
	if !d.Stats().Done {
		t.Fatalf("run did not complete")
	}
	if _, dropped, _ := d.Hub().Stats(); dropped == 0 {
		t.Fatalf("stuck subscriber dropped nothing — publish must have blocked somewhere")
	}
}

func TestSpecBuildValidation(t *testing.T) {
	bad := []struct {
		spec    Spec
		wantErr string
	}{
		{Spec{Util: 0.5, Fanout: []int{2, 0}, Ticks: 100, Supply: "constant"}, "fan-out"},
		{Spec{Util: 0.5, Fanout: []int{2, 3}, Ticks: 100, Supply: "fusion-reactor"}, "supply"},
		{Spec{Util: 0.5, Fanout: []int{2, 3}, Ticks: 100, Chaos: "no-such-preset"}, "preset"},
		{Spec{Util: 0.5, Fanout: []int{2, 3}, Ticks: 0}, "ticks"},
		{Spec{Util: 0.5, Fanout: []int{2, 3}, Ticks: -5}, "ticks"},
		{Spec{Util: 0.5, Ticks: 100}, "fanout"},
		{Spec{Util: math.NaN(), Fanout: []int{2, 3}, Ticks: 100}, "util"},
		{Spec{Util: 0, Fanout: []int{2, 3}, Ticks: 100}, "util"},
		{Spec{Util: 1.5, Fanout: []int{2, 3}, Ticks: 100}, "util"},
		{Spec{Util: 0.5, Fanout: []int{2, 3}, Ticks: 100, TickSeconds: math.NaN()}, "tick_seconds"},
		{Spec{Util: 0.5, Fanout: []int{2, 3}, Ticks: 100, TickSeconds: -5}, "tick_seconds"},
		{Spec{Util: 0.5, Fanout: []int{2, 3}, Ticks: 100, TickSeconds: math.Inf(1)}, "tick_seconds"},
	}
	for i, c := range bad {
		_, err := c.spec.Build()
		if err == nil || !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("spec %d: Build err = %v, want one naming %q", i, err, c.wantErr)
		}
	}
}

func TestSnapshotFileRoundTrip(t *testing.T) {
	for _, spec := range []Spec{testSpec(), fullSpec()} {
		d, err := New(spec)
		if err != nil {
			t.Fatal(err)
		}
		d.StepN(30)
		if _, err := d.ScaleDemand(0, 1.3); err != nil {
			t.Fatal(err)
		}
		snap := d.Snapshot()
		path := t.TempDir() + "/run.snap"
		if err := snap.WriteFile(path); err != nil {
			t.Fatal(err)
		}
		loaded, err := ReadSnapshot(path)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(snap, loaded) {
			t.Fatalf("snapshot file round-trip changed the snapshot of %+v", spec)
		}
		if _, err := Restore(loaded); err != nil {
			t.Fatal(err)
		}
	}
}
