package server

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// walHeader builds the raw journal header for hand-crafted inputs.
func walHeader() []byte {
	return binary.LittleEndian.AppendUint32([]byte(journalMagic), journalVersion)
}

// walRecord frames a raw payload with a correct CRC.
func walRecord(payload []byte) []byte {
	buf := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(payload))
	return append(buf, payload...)
}

// walFrame frames a record through the encoder.
func walFrame(t testing.TB, rec record) []byte {
	t.Helper()
	frame, err := appendFrame(nil, rec)
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

// cat concatenates byte slices into a fresh one.
func cat(parts ...[]byte) []byte {
	return bytes.Join(parts, nil)
}

func testMutations() []Mutation {
	return []Mutation{
		{Tick: 10, Kind: "demand", Server: -1, Factor: 1.25},
		{Tick: 10, Kind: "demand", Server: 3, Factor: 0.8},
		{Tick: 40, Kind: "chaos", Spec: "light", Seed: 7},
	}
}

func TestWALRoundTrip(t *testing.T) {
	for _, spec := range []Spec{testSpec(), fullSpec()} {
		path := filepath.Join(t.TempDir(), "run.wal")
		w, err := CreateWAL(path, spec, nil)
		if err != nil {
			t.Fatal(err)
		}
		muts := testMutations()
		for _, mut := range muts {
			if err := w.Append(mut); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}

		w2, st, err := OpenWAL(path)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(st.Spec, spec) {
			t.Fatalf("recovered spec %+v, want %+v", st.Spec, spec)
		}
		if !reflect.DeepEqual(st.Mutations, muts) {
			t.Fatalf("recovered mutations %+v, want %+v", st.Mutations, muts)
		}
		if st.Truncated != 0 {
			t.Fatalf("clean wal reported %d truncated bytes", st.Truncated)
		}

		// The reopened WAL must keep accepting appends at the right offset.
		extra := Mutation{Tick: 55, Kind: "demand", Server: 0, Factor: 1.1}
		if err := w2.Append(extra); err != nil {
			t.Fatal(err)
		}
		if err := w2.Close(); err != nil {
			t.Fatal(err)
		}
		_, st, err = OpenWAL(path)
		if err != nil {
			t.Fatal(err)
		}
		if want := append(muts, extra); !reflect.DeepEqual(st.Mutations, want) {
			t.Fatalf("after reopen+append: %+v, want %+v", st.Mutations, want)
		}
	}
}

// TestWALCreateRefusesExisting pins the overwrite guard: recovery must
// be a deliberate OpenWAL, never CreateWAL clobbering history.
func TestWALCreateRefusesExisting(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.wal")
	w, err := CreateWAL(path, testSpec(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if _, err := CreateWAL(path, testSpec(), nil); err == nil {
		t.Fatal("CreateWAL over an existing wal did not fail")
	}
}

// TestWALSeedsExistingJournal pins the full-history invariant: a WAL
// armed after a restore must already contain the restored journal, so
// recovery never needs the snapshot file to exist.
func TestWALSeedsExistingJournal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.wal")
	muts := testMutations()
	w, err := CreateWAL(path, testSpec(), muts)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	_, st, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(st.Mutations, muts) {
		t.Fatalf("seeded journal came back as %+v, want %+v", st.Mutations, muts)
	}
}

// tornTails are the ways an interrupted append can tear a WAL's last
// record.
func tornTails() []struct {
	name string
	tail []byte
} {
	badCRC := walRecord([]byte("0123456789"))
	binary.LittleEndian.PutUint32(badCRC[4:8], 0xdeadbeef)
	hugeLen := make([]byte, frameLen)
	binary.LittleEndian.PutUint32(hugeLen[:4], maxRecord+1)
	return []struct {
		name string
		tail []byte
	}{
		{"short frame", []byte{0x03, 0x00, 0x00}},
		{"frame without payload", walRecord([]byte("0123456789"))[:frameLen]},
		{"short payload", walRecord([]byte("0123456789"))[:12]}, // frame + 4 of 10 payload bytes
		{"crc mismatch", badCRC},
		{"implausible length", hugeLen},
	}
}

// TestWALTornTailTruncation is the crash-mid-append table: every way an
// interrupted write can tear the final record must recover the intact
// prefix, report the torn byte count, and truncate the file in place so
// the next open is clean.
func TestWALTornTailTruncation(t *testing.T) {
	for _, tc := range tornTails() {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "run.wal")
			muts := testMutations()
			w, err := CreateWAL(path, testSpec(), muts)
			if err != nil {
				t.Fatal(err)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			cleanSize := fileSize(t, path)
			f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Write(tc.tail); err != nil {
				t.Fatal(err)
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}

			w2, st, err := OpenWAL(path)
			if err != nil {
				t.Fatalf("torn tail was fatal: %v", err)
			}
			defer w2.Close()
			if !reflect.DeepEqual(st.Mutations, muts) {
				t.Fatalf("torn tail corrupted the prefix: %+v", st.Mutations)
			}
			if st.Truncated != int64(len(tc.tail)) {
				t.Fatalf("Truncated = %d, want %d", st.Truncated, len(tc.tail))
			}
			if got := fileSize(t, path); got != cleanSize {
				t.Fatalf("file is %d bytes after truncation, want %d", got, cleanSize)
			}

			// The truncated WAL must accept appends exactly where the
			// valid prefix ended.
			extra := Mutation{Tick: 60, Kind: "demand", Server: -1, Factor: 1.05}
			if err := w2.Append(extra); err != nil {
				t.Fatal(err)
			}
			_, st, err = OpenWAL(path)
			if err != nil {
				t.Fatal(err)
			}
			if want := append(muts, extra); !reflect.DeepEqual(st.Mutations, want) {
				t.Fatalf("append after truncation: %+v, want %+v", st.Mutations, want)
			}
		})
	}
}

// corruptInput is one damaged file and the error it must produce.
type corruptInput struct {
	name    string
	data    []byte
	wantErr string
}

// unknownFieldSpec is a CRC-valid spec record whose spec carries a field
// this binary does not know.
var unknownFieldSpec = walRecord([]byte(`{"type":"spec","spec":{"util":0.5,"fanout":[2],"ticks":10,"hotzon":true}}`))

// corruptWALInputs is damage a torn tail cannot explain.
func corruptWALInputs(t testing.TB) []corruptInput {
	version := func(v uint32) []byte {
		return binary.LittleEndian.AppendUint32([]byte(journalMagic), v)
	}
	spec := testSpec()
	goodSpec := walFrame(t, record{Type: recSpec, Spec: &spec})
	mut := testMutations()[0]
	return []corruptInput{
		{"empty file", nil, "short header"},
		{"not a wal", []byte("definitely not a wal file, but long enough"), "bad magic"},
		{"future version", version(99), "version 99"},
		{"version-1 wal", cat(version(1), goodSpec), "version 1, want 2"},
		{"header only", walHeader(), "no spec record"},
		{"crc-valid garbage spec", cat(walHeader(), walRecord([]byte("{not json"))), fmt.Sprintf("record at offset %d", headerLen)},
		{"spec with an unknown field", cat(walHeader(), unknownFieldSpec), `unknown field "hotzon"`},
		{"crc-valid garbage mutation", cat(walHeader(), goodSpec, walRecord([]byte("[broken"))),
			fmt.Sprintf("record at offset %d", headerLen+len(goodSpec))},
		{"mutation index skips ahead", cat(walHeader(), goodSpec, walFrame(t, record{Type: recMut, Index: 1, Mut: &mut})), "out of place"},
		{"boundary in a wal", cat(walHeader(), goodSpec, walFrame(t, record{Type: recBoundary})), "out of place"},
		{"spec first twice", cat(walHeader(), goodSpec, goodSpec), "spec record out of place"},
	}
}

// TestCorruptWALInputs is the structural-corruption table: damage that a
// torn tail cannot explain must be a loud error naming the file, never a
// silent partial recovery.
func TestCorruptWALInputs(t *testing.T) {
	for _, tc := range corruptWALInputs(t) {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "run.wal")
			if err := os.WriteFile(path, tc.data, 0o644); err != nil {
				t.Fatal(err)
			}
			_, _, err := OpenWAL(path)
			if err == nil {
				t.Fatalf("OpenWAL accepted %s", tc.name)
			}
			if !strings.Contains(err.Error(), tc.wantErr) || !strings.Contains(err.Error(), path) {
				t.Fatalf("error %q does not mention %q and the file", err, tc.wantErr)
			}
		})
	}
}

// corruptSnapshotInputs is the snapshot counterpart: truncated, garbage
// or misshapen files, and the old JSON format.
func corruptSnapshotInputs(t testing.TB) []corruptInput {
	valid, err := Snapshot{Spec: testSpec(), Tick: 10}.encode()
	if err != nil {
		t.Fatal(err)
	}
	wal, err := encodeJournal(testSpec(), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	mut := testMutations()[0]
	return []corruptInput{
		{"empty file", nil, "short header"},
		{"binary garbage", []byte{0x00, 0xff, 0x13, 0x37, 0x00}, "short header"},
		{"truncated snapshot", valid[:len(valid)/2], "torn record"},
		{"wrong shape", cat(walHeader(), walRecord([]byte(`["an", "array", "not", "an", "object"]`))), "cannot unmarshal array"},
		{"spec with an unknown field", cat(walHeader(), unknownFieldSpec, walFrame(t, record{Type: recBoundary})), `unknown field "hotzon"`},
		{"version-1 json snapshot", []byte(`{"version":1,"spec":{"util":0.5,"fanout":[2],"ticks":10},"tick":0}`), "bad magic"},
		{"wal without a boundary", wal, "no boundary record"},
		{"boundary miscounting the journal", cat(wal, walFrame(t, record{Type: recBoundary, boundary: boundary{Records: 1}})), "out of place"},
		{"record after the boundary", cat(valid, walFrame(t, record{Type: recMut, Mut: &mut})), "out of place"},
	}
}

// TestCorruptSnapshotInputs: ReadSnapshot on truncated or garbage files
// must fail cleanly with the path named.
func TestCorruptSnapshotInputs(t *testing.T) {
	for _, tc := range corruptSnapshotInputs(t) {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "run.snap")
			if err := os.WriteFile(path, tc.data, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := ReadSnapshot(path); err == nil {
				t.Fatalf("ReadSnapshot accepted %s", tc.name)
			} else if !strings.Contains(err.Error(), "run.snap") || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not name the file and %q", err, tc.wantErr)
			}
		})
	}
	if _, err := ReadSnapshot(filepath.Join(t.TempDir(), "missing.snap")); !os.IsNotExist(err) {
		t.Fatalf("missing snapshot: got %v, want IsNotExist", err)
	}
}

// longTraceSpec inlines a 150,000-point supply trace, the shape -supply
// file:PATH produces for a long CSV: its spec record is megabytes.
func longTraceSpec() Spec {
	spec := testSpec()
	spec.Supply = "trace"
	spec.SupplyTrace = make([]float64, 150_000)
	for i := range spec.SupplyTrace {
		spec.SupplyTrace[i] = 2000 + 700*math.Sin(float64(i)/97)
	}
	return spec
}

// TestWALLongInlineTrace pins the record bound from both ends: a spec
// with a long inline trace round-trips through a WAL (and recovery), a
// snapshot and the replication stream.
func TestWALLongInlineTrace(t *testing.T) {
	spec := longTraceSpec()
	dir := t.TempDir()
	walPath := filepath.Join(dir, "run.wal")
	d := newTestDaemon(t, spec)
	wal, err := CreateWAL(walPath, spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer wal.Close()
	d.AttachWAL(wal)
	d.StepN(5)
	if _, err := d.ScaleDemand(-1, 1.1); err != nil {
		t.Fatal(err)
	}
	if size := fileSize(t, walPath); size <= 1<<20 {
		t.Fatalf("wal is %d bytes, want a spec record over 1 MiB", size)
	}

	rec, rwal, info, err := Recover("", walPath)
	if err != nil {
		t.Fatal(err)
	}
	rec.Close()
	rwal.Close()
	if !reflect.DeepEqual(info.Spec, spec) || info.Mutations != 1 {
		t.Fatalf("recovered %d mutations and a spec that differs: %v", info.Mutations, !reflect.DeepEqual(info.Spec, spec))
	}

	snapPath := filepath.Join(dir, "run.snap")
	snap, err := d.WriteSnapshot(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	if loaded, err := ReadSnapshot(snapPath); err != nil || !reflect.DeepEqual(loaded, snap) {
		t.Fatalf("snapshot round trip: %v", err)
	}

	ts := httptest.NewServer(NewHandlerOpts(d, HandlerOptions{}))
	defer ts.Close()
	rd := openReplicate(t, ts.URL, 0)
	defer rd.close()
	if got := rd.next(); got.Type != recSpec || !reflect.DeepEqual(*got.Spec, spec) {
		t.Fatal("stream's spec record differs from the run's")
	}
}

// TestWALCreateFailureLeavesNoFile: a history that cannot be encoded —
// a NaN spec, a record over the bound — fails CreateWAL and WriteFile
// before anything is acknowledged, and leaves no file for the next boot
// to trip over.
func TestWALCreateFailureLeavesNoFile(t *testing.T) {
	nan := testSpec()
	nan.Util = math.NaN()
	huge := testSpec()
	huge.Chaos = strings.Repeat("x", maxRecord)
	for _, tc := range []struct {
		name    string
		spec    Spec
		wantErr string
	}{
		{"NaN util", nan, "unsupported value"},
		{"spec record over the bound", huge, "over the"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			walPath := filepath.Join(dir, "run.wal")
			if _, err := CreateWAL(walPath, tc.spec, nil); err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("CreateWAL = %v, want an error naming %q", err, tc.wantErr)
			}
			snapPath := filepath.Join(dir, "run.snap")
			if err := (Snapshot{Spec: tc.spec}).WriteFile(snapPath); err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("WriteFile = %v, want an error naming %q", err, tc.wantErr)
			}
			if entries, _ := os.ReadDir(dir); len(entries) != 0 {
				t.Fatalf("failed writes left %d files behind", len(entries))
			}
		})
	}
}

// TestWALFormatPin pins the durable format: testdata/v2.snap, written by
// the version-2 encoder, decodes to fixed values and re-encodes byte for
// byte, and its spec and mutation frames are exactly the bytes CreateWAL
// writes for the same history. A change that breaks this pin changes the
// format, and must bump journalVersion.
func TestWALFormatPin(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "v2.snap"))
	if err != nil {
		t.Fatal(err)
	}
	snap, err := DecodeSnapshot(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	want := Snapshot{
		Spec: Spec{Util: 0.6, Fanout: []int{2, 3}, Ticks: 200, Warmup: 50, Seed: 42, Supply: "sine"},
		Tick: 40,
		Journal: []Mutation{
			{Tick: 10, Kind: "demand", Server: -1, Factor: 1.25},
			{Tick: 10, Kind: "demand", Server: 3, Factor: 0.8},
			{Tick: 40, Kind: "chaos", Spec: "light", Seed: 7},
		},
	}
	if !reflect.DeepEqual(snap, want) {
		t.Fatalf("pinned snapshot decodes to %+v, want %+v", snap, want)
	}
	again, err := snap.encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, data) {
		t.Fatalf("re-encoding the pinned snapshot changed its bytes:\n%q\n%q", again, data)
	}

	path := filepath.Join(t.TempDir(), "run.wal")
	w, err := CreateWAL(path, want.Spec, want.Journal)
	if err != nil {
		t.Fatal(err)
	}
	w.Close()
	wal, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	closing := walFrame(t, record{Type: recBoundary, boundary: boundary{Tick: 40, Records: 3}})
	if !bytes.Equal(cat(wal, closing), data) {
		t.Fatalf("snapshot is not the WAL of its history plus its boundary:\nwal  %q\nsnap %q", wal, data)
	}
}

// decodeAll decodes a journal's records up to the first error.
func decodeAll(data []byte) ([]record, error) {
	var recs []record
	_, err := decodeJournal(bytes.NewReader(data), func(rec record) error {
		recs = append(recs, rec)
		return nil
	})
	return recs, err
}

// FuzzJournal drives the one journal decoder with arbitrary bytes, as a
// WAL, a snapshot and a replication stream present them. It must never
// panic; whatever decodes must re-encode to bytes that decode to the
// same values; and the records decoded from a prefix must be a prefix of
// those decoded from the whole input.
func FuzzJournal(f *testing.F) {
	for _, in := range append(corruptWALInputs(f), corruptSnapshotInputs(f)...) {
		f.Add(in.data, uint16(len(in.data)/2))
	}
	wal, err := encodeJournal(testSpec(), 0, testMutations())
	if err != nil {
		f.Fatal(err)
	}
	for _, tc := range tornTails() {
		f.Add(cat(wal, tc.tail), uint16(len(wal)))
	}
	snap, err := Snapshot{Spec: fullSpec(), Tick: 40, Journal: testMutations()}.encode()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(snap, uint16(len(snap)-5))
	stream := recordStream(f)
	f.Add(stream, uint16(len(stream)*2/3))

	f.Fuzz(func(t *testing.T, data []byte, cut uint16) {
		recs, _ := decodeAll(data)
		if len(recs) > 0 {
			again := walHeader()
			for _, rec := range recs {
				again = append(again, walFrame(t, rec)...)
			}
			back, err := decodeAll(again)
			if err != nil || !reflect.DeepEqual(back, recs) {
				t.Fatalf("re-encoded records decode to %+v (%v), want %+v", back, err, recs)
			}
		}
		prefix, _ := decodeAll(data[:int(cut)%(len(data)+1)])
		if len(prefix) > len(recs) || len(prefix) > 0 && !reflect.DeepEqual(prefix, recs[:len(prefix)]) {
			t.Fatalf("a prefix decoded to %d records that are not a prefix of the whole's %d", len(prefix), len(recs))
		}

		if snap, err := DecodeSnapshot(bytes.NewReader(data)); err == nil {
			again, err := snap.encode()
			if err != nil {
				t.Fatal(err)
			}
			if back, err := DecodeSnapshot(bytes.NewReader(again)); err != nil || !reflect.DeepEqual(back, snap) {
				t.Fatalf("re-encoded snapshot decodes to %+v (%v), want %+v", back, err, snap)
			}
		}
		if st, _, err := readHistory(bytes.NewReader(data), false); err == nil {
			again, err := encodeJournal(st.Spec, 0, st.Journal)
			if err != nil {
				t.Fatal(err)
			}
			back, end, err := readHistory(bytes.NewReader(again), false)
			if err != nil || end != int64(len(again)) || !reflect.DeepEqual(back, st) {
				t.Fatalf("re-encoded wal decodes to %+v (%v), want %+v", back, err, st)
			}
		}
	})
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}
