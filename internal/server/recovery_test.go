package server

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"willow/internal/telemetry"
)

// crashWALDaemon builds a WAL-armed daemon and a matching WAL path in a
// temp dir. Dropping the daemon without any teardown models kill -9:
// WAL appends are already durable, nothing else is.
func crashWALDaemon(t *testing.T, spec Spec) (*Daemon, *WAL, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "run.wal")
	d, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	w, err := CreateWAL(path, spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	d.AttachWAL(w)
	return d, w, path
}

// mutateScript drives a daemon through the shared crash-test history:
// step, scale, step, inject chaos, step — ending at tick 70 with two
// mutations journaled (at ticks 40 and 60).
func mutateScript(t *testing.T, d *Daemon) {
	t.Helper()
	d.StepN(40)
	if _, err := d.ScaleDemand(3, 1.4); err != nil {
		t.Fatal(err)
	}
	d.StepN(20)
	if _, _, err := d.InjectChaos("light", 7); err != nil {
		t.Fatal(err)
	}
	d.StepN(10)
}

// TestRecoverMatchesUninterrupted is the tentpole's in-process pin: a
// daemon killed without warning (only its WAL survives) recovers to
// byte-identical state — against both the dead incarnation's in-memory
// state and a run that never died.
func TestRecoverMatchesUninterrupted(t *testing.T) {
	spec := testSpec()
	dead, _, walPath := crashWALDaemon(t, spec)
	mutateScript(t, dead) // at tick 70; WAL knows through tick 60

	rec, wal, info, err := Recover("", walPath)
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	defer wal.Close()
	if info.Tick != 60 || info.Mutations != 2 || info.SnapshotTick != -1 || info.TruncatedBytes != 0 {
		t.Fatalf("RecoveryInfo = %+v, want tick 60, 2 mutations, no snapshot, no torn tail", info)
	}
	// Ticks beyond the last durable mutation re-execute deterministically.
	rec.StepN(70 - info.Tick)

	oracle := newTestDaemon(t, spec)
	mutateScript(t, oracle)

	for _, pair := range []struct {
		label string
		a, b  *Daemon
	}{{"recovered vs dead incarnation", rec, dead}, {"recovered vs uninterrupted", rec, oracle}} {
		sa, err := json.Marshal(pair.a.State())
		if err != nil {
			t.Fatal(err)
		}
		sb, err := json.Marshal(pair.b.State())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(sa, sb) {
			t.Fatalf("%s: /v1/state differs\n%s\n%s", pair.label, sa, sb)
		}
		if !reflect.DeepEqual(pair.a.Snapshot(), pair.b.Snapshot()) {
			t.Fatalf("%s: snapshots differ", pair.label)
		}
		sameResult(t, pair.a.Result(), pair.b.Result(), pair.label)
	}

	// And through to completion: the whole run, not just tick 70.
	rec.StepN(spec.Ticks)
	oracle.StepN(spec.Ticks)
	sameResult(t, rec.Result(), oracle.Result(), "recovered run to completion")
}

// TestRecoverWithBaseSnapshot covers the operator workflow: a periodic
// snapshot bounds replay cost, and recovery cross-checks it against the
// WAL instead of trusting either alone.
func TestRecoverWithBaseSnapshot(t *testing.T) {
	spec := testSpec()
	dead, _, walPath := crashWALDaemon(t, spec)
	mutateScript(t, dead)
	snapPath := filepath.Join(filepath.Dir(walPath), "snap.snap")
	if _, err := dead.WriteSnapshot(snapPath); err != nil {
		t.Fatal(err)
	}
	dead.StepN(5) // die at tick 75, past the snapshot

	rec, wal, info, err := Recover(snapPath, walPath)
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	defer wal.Close()
	// The snapshot (tick 70) is ahead of the last mutation (tick 60):
	// recovery must resume at the furthest boundary durable state proves.
	if info.Tick != 70 || info.SnapshotTick != 70 {
		t.Fatalf("RecoveryInfo = %+v, want resume at snapshot tick 70", info)
	}
	rec.StepN(5)
	sameResult(t, rec.Result(), dead.Result(), "recovered with base snapshot")

	// A missing snapshot file is the normal young-run case, not an error.
	rec2, wal2, info2, err := Recover(filepath.Join(filepath.Dir(walPath), "never-written.snap"), walPath)
	if err != nil {
		t.Fatal(err)
	}
	rec2.Close()
	wal2.Close()
	if info2.Tick != 60 || info2.SnapshotTick != -1 {
		t.Fatalf("missing snapshot: RecoveryInfo = %+v, want WAL-only recovery at tick 60", info2)
	}
}

// TestRecoverRejectsMismatchedSnapshot pins the cross-checks: a snapshot
// from a different run, or one whose journal is not a prefix of the
// WAL's, must refuse recovery instead of guessing.
func TestRecoverRejectsMismatchedSnapshot(t *testing.T) {
	spec := testSpec()
	dead, _, walPath := crashWALDaemon(t, spec)
	mutateScript(t, dead)
	dir := filepath.Dir(walPath)

	otherSpec := testSpec()
	otherSpec.Seed++
	wrongSpec := filepath.Join(dir, "wrong-spec.snap")
	if err := (Snapshot{Spec: otherSpec, Tick: 10}).WriteFile(wrongSpec); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := Recover(wrongSpec, walPath); err == nil || !strings.Contains(err.Error(), "specs differ") {
		t.Fatalf("mismatched spec: got %v", err)
	}

	wrongJournal := filepath.Join(dir, "wrong-journal.snap")
	snap := dead.Snapshot()
	snap.Journal[0].Factor = 99 // not the history the WAL recorded
	if err := snap.WriteFile(wrongJournal); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := Recover(wrongJournal, walPath); err == nil || !strings.Contains(err.Error(), "disagrees with wal") {
		t.Fatalf("mismatched journal: got %v", err)
	}

	longJournal := filepath.Join(dir, "long-journal.snap")
	snap = dead.Snapshot()
	snap.Journal = append(snap.Journal, Mutation{Tick: snap.Tick, Kind: "demand", Server: -1, Factor: 1.01})
	if err := snap.WriteFile(longJournal); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := Recover(longJournal, walPath); err == nil || !strings.Contains(err.Error(), "holds only") {
		t.Fatalf("journal longer than wal: got %v", err)
	}
}

// TestRecoverTornTail pins end-to-end crash-mid-append recovery: garbage
// after the last durable record is truncated, reported, and changes
// nothing about the recovered run.
func TestRecoverTornTail(t *testing.T) {
	spec := testSpec()
	dead, wal, walPath := crashWALDaemon(t, spec)
	mutateScript(t, dead)
	wal.Close() // release the fd before tampering
	f, err := os.OpenFile(walPath, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	torn := []byte{0x40, 0x00, 0x00, 0x00, 0xde, 0xad} // half a frame
	if _, err := f.Write(torn); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	rec, wal2, info, err := Recover("", walPath)
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	defer wal2.Close()
	if info.TruncatedBytes != int64(len(torn)) {
		t.Fatalf("TruncatedBytes = %d, want %d", info.TruncatedBytes, len(torn))
	}
	rec.StepN(70 - info.Tick)
	sameResult(t, rec.Result(), dead.Result(), "recovered past torn tail")
}

// TestRecoverRejectsMisorderedWAL pins the append-only invariant: a WAL
// whose mutation ticks go backwards is not a history and must not replay.
func TestRecoverRejectsMisorderedWAL(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.wal")
	w, err := CreateWAL(path, testSpec(), []Mutation{
		{Tick: 50, Kind: "demand", Server: -1, Factor: 1.1},
		{Tick: 30, Kind: "demand", Server: -1, Factor: 0.9},
	})
	if err != nil {
		t.Fatal(err)
	}
	w.Close()
	if _, _, _, err := Recover("", path); err == nil || !strings.Contains(err.Error(), "append-only") {
		t.Fatalf("misordered wal: got %v", err)
	}
}

// TestWALStickyFailureRefusesMutations pins the divergence guard: after
// a failed append the in-memory machine is ahead of the durable journal,
// so the daemon must refuse further mutations rather than widen the gap
// — while reads and ticking continue.
func TestWALStickyFailureRefusesMutations(t *testing.T) {
	spec := testSpec()
	dead, wal, _ := crashWALDaemon(t, spec)
	dead.StepN(10)
	wal.Close() // every future append now fails

	_, err := dead.ScaleDemand(-1, 1.2)
	if err == nil || !strings.Contains(err.Error(), "not durable") {
		t.Fatalf("append onto closed wal: got %v", err)
	}
	// The mutation did apply in memory (the machine had already scaled),
	// so a graceful snapshot must still describe the real state.
	if got := len(dead.Snapshot().Journal); got != 1 {
		t.Fatalf("journal has %d entries after non-durable mutation, want 1", got)
	}
	// But the failure is sticky: nothing further is accepted.
	if _, err := dead.ScaleDemand(-1, 1.2); err == nil || !strings.Contains(err.Error(), "mutations disabled") {
		t.Fatalf("mutation after wal divergence: got %v", err)
	}
	if _, _, err := dead.InjectChaos("light", 1); err == nil || !strings.Contains(err.Error(), "mutations disabled") {
		t.Fatalf("chaos after wal divergence: got %v", err)
	}
	// Ticking and reads stay alive — the daemon degrades, not dies.
	dead.StepN(5)
	if got := dead.NextTick(); got != 15 {
		t.Fatalf("tick = %d after divergence, want 15", got)
	}
}

// TestRecoverReplayOracleStream pins the harness's comparison oracle:
// Replay publishes, from tick 0, the byte-identical event stream a live
// WAL-armed daemon published across its whole life.
func TestRecoverReplayOracleStream(t *testing.T) {
	spec := testSpec()
	var live []telemetry.Event
	d, _, _ := crashWALDaemon(t, spec)
	d.SetSink(telemetry.SinkFunc(func(e telemetry.Event) { live = append(live, e) }))
	mutateScript(t, d)

	var replayed []telemetry.Event
	oracle, err := Replay(d.Snapshot(), telemetry.SinkFunc(func(e telemetry.Event) { replayed = append(replayed, e) }))
	if err != nil {
		t.Fatal(err)
	}
	defer oracle.Close()
	if !bytes.Equal(encodeStream(t, live), encodeStream(t, replayed)) {
		t.Fatalf("replayed stream differs: %d live events vs %d replayed", len(live), len(replayed))
	}
	sameResult(t, d.Result(), oracle.Result(), "replay oracle")
}
