package server

import (
	"encoding/binary"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// walHeader builds the raw file header for hand-crafted WAL inputs.
func walHeader() []byte {
	var buf []byte
	buf = append(buf, walMagic...)
	return binary.LittleEndian.AppendUint32(buf, walVersion)
}

// walRecord frames a payload with a correct CRC.
func walRecord(payload []byte) []byte {
	return appendRecord(nil, payload)
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

// TestWALTornTailTruncation is the crash-mid-append table: every way an
// interrupted write can tear the final record must recover the intact
// prefix, report the torn byte count, and truncate the file in place so
// the next open is clean.
func TestWALTornTailTruncation(t *testing.T) {
	shortPayload := walRecord([]byte("0123456789"))[:12] // frame + 4 of 10 payload bytes
	badCRC := walRecord([]byte("0123456789"))
	binary.LittleEndian.PutUint32(badCRC[4:8], 0xdeadbeef)
	hugeLen := make([]byte, walFrameLen)
	binary.LittleEndian.PutUint32(hugeLen[:4], walMaxRecord+1)

	cases := []struct {
		name string
		tail []byte
	}{
		{"short frame", []byte{0x03, 0x00, 0x00}},
		{"frame without payload", walRecord([]byte("0123456789"))[:walFrameLen]},
		{"short payload", shortPayload},
		{"crc mismatch", badCRC},
		{"implausible length", hugeLen},
	}
	for _, tc := range cases {
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

// TestCorruptWALInputs is the structural-corruption table: damage that a
// torn tail cannot explain must be a loud error naming the file, never a
// silent partial recovery.
func TestCorruptWALInputs(t *testing.T) {
	badVersion := walHeader()
	binary.LittleEndian.PutUint32(badVersion[len(walMagic):], 99)

	specJSON, err := json.Marshal(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	goodSpec := walRecord(specJSON)

	cases := []struct {
		name    string
		data    []byte
		wantErr string
	}{
		{"empty file", nil, "short header"},
		{"not a wal", []byte("definitely not a wal file, but long enough"), "bad magic"},
		{"future version", badVersion, "version 99"},
		{"header only", walHeader(), "no spec record"},
		{"crc-valid garbage spec", append(walHeader(), walRecord([]byte("{not json"))...), "spec record"},
		{"spec with an unknown field", append(walHeader(), walRecord([]byte(`{"util":0.5,"fanout":[2],"ticks":10,"hotzon":true}`))...), `unknown field "hotzon"`},
		{"crc-valid garbage mutation", append(append(walHeader(), goodSpec...), walRecord([]byte("[broken"))...), "mutation record"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "run.wal")
			if err := os.WriteFile(path, tc.data, 0o644); err != nil {
				t.Fatal(err)
			}
			_, _, err := OpenWAL(path)
			if err == nil {
				t.Fatalf("OpenWAL accepted %s", tc.name)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

// TestCorruptSnapshotInputs is the snapshot counterpart: ReadSnapshot on
// truncated or garbage files must fail cleanly with the path named.
func TestCorruptSnapshotInputs(t *testing.T) {
	valid, err := json.MarshalIndent(Snapshot{Version: SnapshotVersion, Spec: testSpec(), Tick: 10}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		data []byte
	}{
		{"empty file", nil},
		{"binary garbage", []byte{0x00, 0xff, 0x13, 0x37, 0x00}},
		{"truncated json", valid[:len(valid)/2]},
		{"wrong shape", []byte(`["an", "array", "not", "an", "object"]`)},
		{"spec with an unknown field", []byte(`{"version":1,"spec":{"util":0.5,"fanout":[2],"ticks":10,"hotzon":true},"tick":0}`)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "snap.json")
			if err := os.WriteFile(path, tc.data, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := ReadSnapshot(path); err == nil {
				t.Fatalf("ReadSnapshot accepted %s", tc.name)
			} else if !strings.Contains(err.Error(), "snap.json") {
				t.Fatalf("error %q does not name the file", err)
			}
		})
	}
	if _, err := ReadSnapshot(filepath.Join(t.TempDir(), "missing.json")); !os.IsNotExist(err) {
		t.Fatalf("missing snapshot: got %v, want IsNotExist", err)
	}
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}
