package server

// Crash recovery: rebuilding a daemon from durable state after an
// ungraceful death. The recovery order is fixed and matters:
//
//  1. Open the WAL. Its first record carries the Spec the run was
//     built from (command-line flags are ignored on recovery — the WAL
//     is authoritative), and the rest carry every acknowledged
//     mutation. A torn tail record is truncated, never fatal.
//  2. If a base snapshot is supplied, load it and verify consistency:
//     same Spec, and the snapshot's journal must be a prefix of the
//     WAL's mutations (the WAL holds the complete history from tick 0,
//     so a snapshot can only ever summarize a prefix of it). Both files
//     are journals in one format (wal.go); the snapshot adds a closing
//     boundary record.
//  3. Rebuild through Restore at the recovery tick — the furthest
//     boundary durable state proves the old incarnation reached:
//     max(snapshot tick, last WAL mutation tick). Restore refuses a
//     journal whose ticks go backwards. Ticks the dead incarnation ran
//     beyond that boundary re-execute live after recovery; determinism
//     makes the re-execution bit-identical, so the run's final state is
//     byte-identical to one that never died.
//
// The base snapshot never changes the outcome and never shortens the
// replay: a snapshot holds no machine state, so Restore rebuilds from
// tick 0 through replayMachine either way, and recovery costs time
// linear in the recovery tick. What the snapshot adds is a cross-check
// of the WAL (recovery verifies the pair agrees instead of trusting
// either alone) and a named boundary the recovery tick may not fall
// short of.

import (
	"fmt"
	"os"
	"reflect"

	"willow/internal/telemetry"
)

// RecoveryInfo describes what Recover reconstructed, for operator
// logging.
type RecoveryInfo struct {
	// Spec is the run spec recovered from the WAL header.
	Spec Spec
	// Tick is the boundary the daemon resumed at.
	Tick int
	// Mutations is the number of durable mutations replayed.
	Mutations int
	// SnapshotTick is the base snapshot's tick (-1 when recovering from
	// the WAL alone).
	SnapshotTick int
	// TruncatedBytes is the torn WAL tail discarded, if any.
	TruncatedBytes int64
}

// Recover rebuilds a daemon from a WAL (and an optional base snapshot),
// attaches the WAL for further appends, and returns what it found. On
// error the WAL is closed; on success the caller owns both the daemon
// and the WAL (Daemon.Close does not close the WAL).
func Recover(snapPath, walPath string) (*Daemon, *WAL, RecoveryInfo, error) {
	wal, st, err := OpenWAL(walPath)
	if err != nil {
		return nil, nil, RecoveryInfo{}, err
	}
	info := RecoveryInfo{
		Spec:           st.Spec,
		Mutations:      len(st.Mutations),
		SnapshotTick:   -1,
		TruncatedBytes: st.Truncated,
	}
	fail := func(err error) (*Daemon, *WAL, RecoveryInfo, error) {
		wal.Close()
		return nil, nil, RecoveryInfo{}, err
	}

	// Restore checks that the mutation ticks never go backwards.
	tick := 0
	if n := len(st.Mutations); n > 0 {
		tick = st.Mutations[n-1].Tick
	}

	if snapPath != "" {
		switch snap, err := ReadSnapshot(snapPath); {
		case os.IsNotExist(err):
			// No base snapshot yet (none was ever written): WAL-only
			// recovery is the normal young-run case.
		case err != nil:
			return fail(err)
		case !reflect.DeepEqual(snap.Spec, st.Spec):
			return fail(fmt.Errorf("server: snapshot %s and wal %s describe different runs (specs differ)", snapPath, walPath))
		case len(snap.Journal) > len(st.Mutations):
			return fail(fmt.Errorf("server: snapshot %s has %d journal entries but wal %s holds only %d — the wal is not this run's journal",
				snapPath, len(snap.Journal), walPath, len(st.Mutations)))
		default:
			for i, mut := range snap.Journal {
				if !reflect.DeepEqual(mut, st.Mutations[i]) {
					return fail(fmt.Errorf("server: snapshot %s journal entry %d disagrees with wal %s — refusing to guess which history is real",
						snapPath, i, walPath))
				}
			}
			info.SnapshotTick, tick = snap.Tick, max(tick, snap.Tick)
		}
	}

	d, err := Restore(Snapshot{Spec: st.Spec, Tick: tick, Journal: st.Mutations})
	if err != nil {
		return fail(fmt.Errorf("server: recovering from wal %s: %w", walPath, err))
	}
	d.AttachWAL(wal)
	info.Tick = tick
	return d, wal, info, nil
}

// Replay is the uninterrupted-run oracle: it rebuilds the run a
// snapshot describes with telemetry flowing from tick 0 — unlike
// Restore, which silences events during fast-forward because a live
// predecessor already published them. The returned daemon rests at
// snap.Tick having published, through sink, the exact event stream a
// single never-interrupted run with the same mutation history would
// have produced. The crash harness compares a kill/recover run's
// surviving stream fragments against this.
func Replay(snap Snapshot, sink telemetry.Sink) (*Daemon, error) {
	m, err := replayMachine(snap, sink)
	if err != nil {
		return nil, err
	}
	d := newDaemon(snap.Spec, m, append([]Mutation(nil), snap.Journal...))
	d.sink = sink
	return d, nil
}
