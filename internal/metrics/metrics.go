// Package metrics provides the measurement plumbing shared by all Willow
// experiments: online mean/variance accumulators, counters, weighted
// histograms, and table rendering (plain text and CSV) for regenerating
// the paper's tables and figure series.
package metrics

import (
	"fmt"
	"math"
	"strings"
	"unicode/utf8"
)

// Welford accumulates mean and variance online in a single pass
// (numerically stable, Welford 1962). The zero value is ready to use.
type Welford struct {
	n    int
	mean float64
	m2   float64
}

// Add folds in one observation.
func (w *Welford) Add(x float64) {
	w.n++
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// N returns the number of observations.
func (w *Welford) N() int { return w.n }

// Mean returns the running mean (0 before any observation).
func (w *Welford) Mean() float64 { return w.mean }

// Variance returns the population variance (0 with fewer than 2 samples).
func (w *Welford) Variance() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n)
}

// StdDev returns the population standard deviation.
func (w *Welford) StdDev() float64 { return math.Sqrt(w.Variance()) }

// SampleVariance returns the unbiased (n−1) sample variance (0 with
// fewer than 2 samples).
func (w *Welford) SampleVariance() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// CI95Half returns the half-width of the normal-approximation 95 %
// confidence interval for the mean: 1.96·s/√n (0 with fewer than 2
// samples). Replication counts are small, so this understates the
// t-distribution interval slightly; the harness reports it as a spread
// indicator, not a significance test.
func (w *Welford) CI95Half() float64 {
	if w.n < 2 {
		return 0
	}
	return 1.96 * math.Sqrt(w.SampleVariance()/float64(w.n))
}

// Table is a rendered experiment result: a titled grid of cells.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
}

// NewTable returns a table with the given title and column headers.
func NewTable(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// AddRow appends one row. The cell count must match the column count.
func (t *Table) AddRow(cells ...string) {
	if len(cells) != len(t.Columns) {
		panic(fmt.Sprintf("metrics: row has %d cells, table has %d columns", len(cells), len(t.Columns)))
	}
	t.Rows = append(t.Rows, cells)
}

// String renders the table as aligned plain text. Widths count runes so
// non-ASCII cells (degree signs, dashes) stay aligned.
func (t *Table) String() string {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = utf8.RuneCountInString(c)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if n := utf8.RuneCountInString(c); n > widths[i] {
				widths[i] = n
			}
		}
	}
	var sb strings.Builder
	if t.Title != "" {
		sb.WriteString(t.Title)
		sb.WriteByte('\n')
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(c)
			sb.WriteString(strings.Repeat(" ", widths[i]-utf8.RuneCountInString(c)))
		}
		sb.WriteByte('\n')
	}
	writeRow(t.Columns)
	total := len(widths) - 1
	for _, w := range widths {
		total += w + 1
	}
	sb.WriteString(strings.Repeat("-", total))
	sb.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	return sb.String()
}

// Markdown renders the table as a GitHub-flavored markdown table with
// the title as a bold caption line.
func (t *Table) Markdown() string {
	var sb strings.Builder
	if t.Title != "" {
		sb.WriteString("**")
		sb.WriteString(t.Title)
		sb.WriteString("**\n\n")
	}
	writeRow := func(cells []string) {
		sb.WriteString("|")
		for _, c := range cells {
			sb.WriteByte(' ')
			sb.WriteString(strings.ReplaceAll(c, "|", "\\|"))
			sb.WriteString(" |")
		}
		sb.WriteByte('\n')
	}
	writeRow(t.Columns)
	sb.WriteString("|")
	for range t.Columns {
		sb.WriteString("---|")
	}
	sb.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	return sb.String()
}

// CSV renders the table as RFC-4180-ish CSV (cells containing commas or
// quotes are quoted).
func (t *Table) CSV() string {
	var sb strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteByte(',')
			}
			if strings.ContainsAny(c, ",\"\n") {
				sb.WriteByte('"')
				sb.WriteString(strings.ReplaceAll(c, `"`, `""`))
				sb.WriteByte('"')
			} else {
				sb.WriteString(c)
			}
		}
		sb.WriteByte('\n')
	}
	writeRow(t.Columns)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return sb.String()
}
