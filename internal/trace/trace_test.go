package trace

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"willow/internal/power"
)

func TestReadBareColumn(t *testing.T) {
	tr, err := Read(strings.NewReader("100\n200\n300\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr) != 3 || tr[1] != 200 {
		t.Errorf("parsed %v", tr)
	}
}

func TestReadTwoColumnsWithHeader(t *testing.T) {
	in := "time,watts\n0,630\n1,625\n\n# a comment\n2,620\n"
	tr, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	want := power.Trace{630, 625, 620}
	if len(tr) != 3 {
		t.Fatalf("parsed %v", tr)
	}
	for i := range want {
		if tr[i] != want[i] {
			t.Errorf("sample %d = %v, want %v", i, tr[i], want[i])
		}
	}
}

func TestReadHeaderAfterCommentsAndBlanks(t *testing.T) {
	// The header need not be the file's first line: exporters often
	// prepend a comment banner or a blank line, and the header is still
	// skipped (regression: the skip used to require line == 1).
	in := "# solar inverter export\n\n# site 7\ntime,watts\n0,630\n1,625\n"
	tr, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	want := power.Trace{630, 625}
	if len(tr) != 2 || tr[0] != want[0] || tr[1] != want[1] {
		t.Errorf("parsed %v, want %v", tr, want)
	}
}

func TestReadRejectsBadInput(t *testing.T) {
	cases := []string{
		"",                 // empty
		"# only comments",  // no samples
		"1,2,3\n",          // too many columns
		"100\n-5\n",        // negative supply
		"100\nnotanumber",  // bad number mid-file
		"header\nmore-bad", // two non-numeric rows
	}
	for _, in := range cases {
		if _, err := Read(strings.NewReader(in)); err == nil {
			t.Errorf("input %q accepted", in)
		}
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	orig := power.DeficitTrace()
	var buf bytes.Buffer
	if err := Write(&buf, orig); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(orig) {
		t.Fatalf("round trip length %d, want %d", len(got), len(orig))
	}
	for i := range orig {
		if math.Abs(got[i]-orig[i]) > 1e-9 {
			t.Errorf("sample %d: %v != %v", i, got[i], orig[i])
		}
	}
}

func TestFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "supply.csv")
	var buf bytes.Buffer
	if err := Write(&buf, power.PlentyTrace()); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	tr, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(tr.Mean()-power.PlentyTrace().Mean()) > 1e-9 {
		t.Error("file round trip changed the trace")
	}
}

func TestReadFileMissing(t *testing.T) {
	if _, err := ReadFile("/nonexistent/supply.csv"); err == nil {
		t.Error("missing file accepted")
	}
}
