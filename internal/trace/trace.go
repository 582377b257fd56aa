// Package trace reads and writes power-supply traces as CSV, so the
// simulator can be driven by recorded feeds (a solar inverter log, a
// utility meter export) instead of the built-in synthetic profiles —
// the data path for the variable-energy scenarios that motivate Energy
// Adaptive Computing.
//
// The accepted format is deliberately forgiving: one sample per line,
// either a bare wattage or `time,watts` columns; blank lines, `#`
// comments and a non-numeric header row are skipped.
package trace

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"willow/internal/power"
)

// Read parses a supply trace from r.
func Read(r io.Reader) (power.Trace, error) {
	var out power.Trace
	sc := bufio.NewScanner(r)
	line := 0
	first := true // first non-comment, non-blank row may be a header
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		isFirst := first
		first = false
		fields := strings.Split(text, ",")
		var raw string
		switch len(fields) {
		case 1:
			raw = strings.TrimSpace(fields[0])
		case 2:
			raw = strings.TrimSpace(fields[1])
		default:
			return nil, fmt.Errorf("trace: line %d: want 1 or 2 columns, got %d", line, len(fields))
		}
		v, err := strconv.ParseFloat(raw, 64)
		if err != nil {
			if isFirst {
				continue // header row
			}
			return nil, fmt.Errorf("trace: line %d: %w", line, err)
		}
		if v < 0 {
			return nil, fmt.Errorf("trace: line %d: negative supply %v", line, v)
		}
		out = append(out, v)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("trace: no samples")
	}
	return out, nil
}

// ReadFile parses a supply trace from a file.
func ReadFile(path string) (power.Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	defer f.Close()
	return Read(f)
}

// Write emits the trace as `time,watts` CSV with a header, the form Read
// parses back; it is kept as Read's round-trip partner.
func Write(w io.Writer, tr power.Trace) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, "time,watts"); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	for i, v := range tr {
		if _, err := fmt.Fprintf(bw, "%d,%g\n", i, v); err != nil {
			return fmt.Errorf("trace: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	return nil
}
