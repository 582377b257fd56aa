package server

// The journal: the one encoding of a run's history. A run is its Spec
// plus the mutations it accepted — ticks are deterministic, so they are
// not state — and one format carries that history everywhere: the
// write-ahead log (WAL), snapshot files and the POST /v1/snapshot body
// (Snapshot.encode), and the GET /v1/replicate stream (replication.go).
//
// With a WAL attached, every accepted mutation is framed, appended and
// fsync'd BEFORE the API acknowledges it, so an acknowledged mutation
// survives any process death; recovery is snapshot (optional base) +
// WAL replay, see recovery.go.
//
// Format, all integers little-endian:
//
//	header:  8-byte magic "WILLOWAL" | uint32 version (3)
//	frame:   uint32 payload length | uint32 CRC32-IEEE(payload) | payload
//
// Each payload is one record as JSON: the spec, a mutation with its
// journal index, or a tick boundary. A record's bytes depend only on its
// content, so a mutation's frame is the same bytes in the primary's WAL,
// in a snapshot, on the stream and in a follower's WAL. Where records
// may appear:
//
//	WAL       the spec, then mutations whose index equals their position
//	snapshot  the same, then one boundary counting the mutations
//	stream    the spec, the backlog from ?from=, a boundary, then live
//	          mutations and one boundary per tick
//
// WAL records are appended and fsync'd one at a time, so the file is
// always a well-formed prefix plus, at worst, one torn tail record (a
// crash mid-write): a short frame or payload, a length over the bound,
// or a CRC mismatch. OpenWAL truncates it — the torn record was by
// construction never acknowledged. Elsewhere a torn record is an error,
// and everywhere so is damage a torn tail cannot explain: bad magic,
// another version, a CRC-valid record that does not decode or sits out
// of place.
//
// Any change to a record's fields, Spec's included, bumps the version;
// no reader for an older version is kept.

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
)

const (
	journalMagic   = "WILLOWAL"
	journalVersion = 3
	// maxRecord bounds one record's payload, in the encoder and the
	// decoder alike. The spec is the largest record: -supply file:PATH
	// inlines its trace at about 11 bytes a point, so a trace of some
	// 700,000 points fits. A length beyond the bound is garbage.
	maxRecord = 8 << 20
	// headerLen and frameLen are the byte lengths of the header and of
	// one frame's length and CRC fields.
	headerLen = len(journalMagic) + 4
	frameLen  = 8
)

// The record types.
const recSpec, recMut, recBoundary = "spec", "mut", "boundary"

// record is one journal entry, the payload of every frame.
type record struct {
	// Type is recSpec, recMut or recBoundary.
	Type string `json:"type"`
	// Spec is the run (spec records only).
	Spec *Spec `json:"spec,omitempty"`
	// Index is Mut's journal position (mut records only), the follower's
	// resume cursor.
	Index int       `json:"index,omitempty"`
	Mut   *Mutation `json:"mut,omitempty"`
	// boundary is set on boundary records only. It is held by value, so
	// a tick's heartbeat costs the tick loop no allocation.
	boundary
}

// boundary is a tick boundary the daemon reached: every tick before Tick
// has run, with Records journal entries accepted. Done reports the run
// complete; Frozen a migration handoff (Daemon.Freeze).
type boundary struct {
	Tick    int  `json:"tick,omitempty"`
	Records int  `json:"records,omitempty"`
	Done    bool `json:"done,omitempty"`
	Frozen  bool `json:"frozen,omitempty"`
}

// check reports a record whose fields do not fit its type.
func (r record) check() error {
	var ok bool
	switch r.Type {
	case recSpec:
		ok = r.Spec != nil && r == record{Type: recSpec, Spec: r.Spec}
	case recMut:
		ok = r.Mut != nil && r.Index >= 0 && r == record{Type: recMut, Index: r.Index, Mut: r.Mut}
	case recBoundary:
		ok = r.Tick >= 0 && r.Records >= 0 && r == record{Type: recBoundary, boundary: r.boundary}
	}
	if !ok {
		return fmt.Errorf("malformed %q record", r.Type)
	}
	return nil
}

// errTorn marks a frame cut short, over the bound or failing its CRC.
var errTorn = errors.New("torn record")

// errFormat marks input in another format: bad magic or another version.
var errFormat = errors.New("unsupported journal format")

// appendFrame frames rec onto buf.
func appendFrame(buf []byte, rec record) ([]byte, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return buf, fmt.Errorf("server: encoding %s record: %w", rec.Type, err)
	}
	if len(payload) > maxRecord {
		return buf, fmt.Errorf("server: %s record is %d bytes, over the %d-byte bound", rec.Type, len(payload), maxRecord)
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(payload))
	return append(buf, payload...), nil
}

// encodeJournal returns the header, the spec record and one record per
// mutation, indexed from `from`: a WAL's whole content, a snapshot's up
// to its boundary, and the opening of a replication stream.
func encodeJournal(spec Spec, from int, muts []Mutation) ([]byte, error) {
	buf := binary.LittleEndian.AppendUint32([]byte(journalMagic), journalVersion)
	buf, err := appendFrame(buf, record{Type: recSpec, Spec: &spec})
	for i := 0; i < len(muts) && err == nil; i++ {
		buf, err = appendFrame(buf, record{Type: recMut, Index: from + i, Mut: &muts[i]})
	}
	return buf, err
}

// readRecord reads one frame and decodes its record, returning the bytes
// consumed. It returns io.EOF exactly at a clean frame boundary and an
// errTorn error for a frame cut short, over the bound or failing its
// CRC; a whole frame whose record does not decode or check is any other
// error.
func readRecord(r io.Reader) (rec record, n int, err error) {
	var frame [frameLen]byte
	if n, err = io.ReadFull(r, frame[:]); err == io.EOF {
		return rec, 0, io.EOF
	} else if err != nil {
		return rec, n, fmt.Errorf("%w: short frame", errTorn)
	}
	length := binary.LittleEndian.Uint32(frame[:4])
	if length > maxRecord {
		return rec, n, fmt.Errorf("%w: length %d over the %d-byte bound", errTorn, length, maxRecord)
	}
	// Read what is there rather than allocate what the frame claims, so
	// a garbage length costs nothing.
	payload, err := io.ReadAll(io.LimitReader(r, int64(length)))
	if n += len(payload); err != nil || len(payload) < int(length) {
		return rec, n, fmt.Errorf("%w: short payload", errTorn)
	}
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(frame[4:]) {
		return rec, n, fmt.Errorf("%w: crc mismatch", errTorn)
	}
	// The spec decodes strictly (Spec.UnmarshalJSON); the header's
	// version check stands in for that everywhere else.
	if err := json.Unmarshal(payload, &rec); err != nil {
		return rec, n, err
	}
	return rec, n, rec.check()
}

// readHeader reads and checks the journal header.
func readHeader(r io.Reader) error {
	var h [headerLen]byte
	if _, err := io.ReadFull(r, h[:]); err != nil {
		return fmt.Errorf("short header: %w", err)
	}
	if string(h[:len(journalMagic)]) != journalMagic {
		return fmt.Errorf("%w: bad magic", errFormat)
	}
	if v := binary.LittleEndian.Uint32(h[len(journalMagic):]); v != journalVersion {
		return fmt.Errorf("%w: version %d, want %d", errFormat, v, journalVersion)
	}
	return nil
}

// decodeJournal reads a journal from r: the header, then records, the
// first of which must be the spec and no other may be. It hands each
// record to visit and returns the bytes consumed through the last whole
// record. It stops at a clean end (nil), at a torn frame (an errTorn
// error), or at the first other error from the input or from visit.
func decodeJournal(r io.Reader, visit func(record) error) (int64, error) {
	if err := readHeader(r); err != nil {
		return 0, err
	}
	off := int64(headerLen)
	for first := true; ; first = false {
		rec, n, err := readRecord(r)
		if err == io.EOF {
			return off, nil
		}
		if err == nil && first != (rec.Type == recSpec) {
			err = fmt.Errorf("%s record out of place", rec.Type)
		}
		if err == nil {
			err = visit(rec)
		}
		if err != nil {
			return off, fmt.Errorf("record at offset %d: %w", off, err)
		}
		off += int64(n)
	}
}

// readHistory decodes a WAL or, with snapshot set, a snapshot: the
// spec, then mutations whose index equals their position, then — in a
// snapshot only — one boundary counting them, which must end the input.
// A WAL's torn tail is not an error: the history ends where it starts.
// It returns the bytes consumed through the last whole record.
func readHistory(r io.Reader, snapshot bool) (snap Snapshot, end int64, err error) {
	ended := false
	end, err = decodeJournal(r, func(rec record) error {
		switch {
		case ended:
		case rec.Type == recSpec:
			snap.Spec = *rec.Spec
			return nil
		case rec.Type == recMut && rec.Index == len(snap.Journal):
			snap.Journal = append(snap.Journal, *rec.Mut)
			return nil
		case snapshot && rec.Type == recBoundary && rec.Records == len(snap.Journal):
			snap.Tick, ended = rec.Tick, true
			return nil
		}
		return fmt.Errorf("%s record out of place after %d mutations", rec.Type, len(snap.Journal))
	})
	switch {
	case !snapshot && errors.Is(err, errTorn):
		err = nil
	case err == nil && snapshot && !ended:
		err = errors.New("no boundary record")
	}
	if err == nil && end == int64(headerLen) {
		err = errors.New("no spec record (a wal torn during creation: delete it and start fresh)")
	}
	return snap, end, err
}

// WAL is an append-only, fsync-per-append mutation journal. Append is
// not safe for concurrent use on its own; the daemon serializes appends
// under its tick lock.
type WAL struct {
	f *os.File
	n int // mutations in the file: the next one's index
}

// CreateWAL creates a new WAL at path (failing if one already exists —
// recovery must be a deliberate OpenWAL, never an accidental overwrite)
// holding the spec record plus one record per existing journal entry, so
// the WAL always carries the complete mutation history from tick 0. The
// history is encoded before the file is created, so one that cannot be
// encoded leaves no file behind. The file and its parent directory are
// fsync'd before return.
func CreateWAL(path string, spec Spec, journal []Mutation) (*WAL, error) {
	data, err := encodeJournal(spec, 0, journal)
	if err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return nil, fmt.Errorf("server: creating wal: %w", err)
	}
	if _, err = f.Write(data); err == nil {
		err = f.Sync()
	}
	if err == nil {
		err = syncDir(filepath.Dir(path))
	}
	if err != nil {
		f.Close()
		os.Remove(path)
		return nil, fmt.Errorf("server: writing wal %s: %w", path, err)
	}
	return &WAL{f: f, n: len(journal)}, nil
}

// WALState is what OpenWAL found on disk: the spec the run was built
// from, every durable mutation in acceptance order, and how many bytes
// of torn tail (an unacknowledged partial append) were truncated away.
type WALState struct {
	Spec      Spec
	Mutations []Mutation
	// Truncated is the byte length of the torn tail record discarded on
	// open (0 for a cleanly closed WAL).
	Truncated int64
}

// OpenWAL opens an existing WAL for recovery and further appends. It
// validates the header, replays every intact record, and truncates a
// torn tail record in place (see the package comment for why only the
// tail can legally be torn). Structural corruption — wrong magic,
// unsupported version, a record that does not decode or is out of place
// — returns an error naming the file and offset, never a panic.
func OpenWAL(path string) (*WAL, WALState, error) {
	// O_APPEND: appends land at the end of the file, truncated or not,
	// wherever the scan left the offset.
	f, err := os.OpenFile(path, os.O_RDWR|os.O_APPEND, 0)
	if err != nil {
		return nil, WALState{}, fmt.Errorf("server: opening wal: %w", err)
	}
	snap, end, err := readHistory(bufio.NewReader(f), false)
	st := WALState{Spec: snap.Spec, Mutations: snap.Journal}
	var fi os.FileInfo
	if err == nil {
		fi, err = f.Stat()
	}
	if err == nil && fi.Size() > end {
		st.Truncated = fi.Size() - end
		if err = f.Truncate(end); err == nil {
			err = f.Sync()
		}
	}
	if err != nil {
		f.Close()
		return nil, WALState{}, fmt.Errorf("server: wal %s: %w", path, err)
	}
	return &WAL{f: f, n: len(st.Mutations)}, st, nil
}

// Append frames, writes, and fsyncs one mutation. It returns only after
// the record is durable, which is what lets the API acknowledge the
// mutation: an acknowledged mutation survives kill -9.
func (w *WAL) Append(mut Mutation) error {
	frame, err := appendFrame(nil, record{Type: recMut, Index: w.n, Mut: &mut})
	if err != nil {
		return err
	}
	if _, err := w.f.Write(frame); err != nil {
		return fmt.Errorf("server: wal append: %w", err)
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("server: wal fsync: %w", err)
	}
	w.n++
	return nil
}

// Close closes the file. Appends are already durable, so Close has
// nothing to flush.
func (w *WAL) Close() error { return w.f.Close() }

// syncDir fsyncs a directory so a freshly created or renamed entry in
// it survives power loss, not just process death.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("server: syncing directory %s: %w", dir, err)
	}
	return nil
}
