package telemetry

// JSONL encoding: one event per line, zero-valued payload fields
// omitted. Omission is lossless — a decoded event restores exactly the
// zero values that were dropped — so Encode/Decode round-trip every
// event bit for bit, which the fuzz target pins. encoding/json's output
// for a fixed struct is deterministic (fields in declaration order,
// shortest-round-trip floats), so identical runs produce byte-identical
// streams.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// Encode renders one event as its JSONL line, without the trailing
// newline. Events carrying NaN or infinite values are rejected, as is an
// invalid Kind.
func Encode(e Event) ([]byte, error) {
	b, err := json.Marshal(e)
	if err != nil {
		return nil, fmt.Errorf("telemetry: encode: %w", err)
	}
	return b, nil
}

// Decode parses one JSONL line into an Event.
func Decode(line []byte) (Event, error) {
	var e Event
	if err := json.Unmarshal(line, &e); err != nil {
		return Event{}, fmt.Errorf("telemetry: decode: %w", err)
	}
	if e.Kind == 0 {
		return Event{}, fmt.Errorf("telemetry: decode: event missing kind: %s", line)
	}
	return e, nil
}

// ReadAll decodes a JSONL stream, skipping blank lines.
func ReadAll(r io.Reader) ([]Event, error) {
	var out []Event
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	line := 0
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		e, err := Decode(sc.Bytes())
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", line, err)
		}
		out = append(out, e)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("telemetry: read: %w", err)
	}
	return out, nil
}

// Writer is the file sink: it streams events as JSONL through an
// internal buffer. Errors are sticky — the first write or encode error
// is retained and reported by Flush/Close; Publish cannot fail loudly
// (the controller's hot loop does not check), so callers must check
// Close.
type Writer struct {
	w   *bufio.Writer
	und io.Writer
	err error
}

// NewWriter returns a Writer streaming into w. If w is an io.Closer,
// Close closes it after flushing.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: bufio.NewWriter(w), und: w}
}

// Publish implements Sink.
func (jw *Writer) Publish(e Event) {
	if jw.err != nil {
		return
	}
	b, err := Encode(e)
	if err != nil {
		jw.err = err
		return
	}
	if _, err := jw.w.Write(b); err != nil {
		jw.err = err
		return
	}
	jw.err = jw.w.WriteByte('\n')
}

// Flush drains the internal buffer and returns the sticky error, if any.
func (jw *Writer) Flush() error {
	if jw.err != nil {
		return jw.err
	}
	jw.err = jw.w.Flush()
	return jw.err
}

// Close flushes and, when the underlying writer is an io.Closer, closes
// it. The first error wins.
func (jw *Writer) Close() error {
	err := jw.Flush()
	if c, ok := jw.und.(io.Closer); ok {
		if cerr := c.Close(); err == nil {
			err = cerr
		}
	}
	return err
}
