// Package experiments implements every experiment in EXPERIMENTS.md —
// one per figure or Section-7 claim of the paper. Each experiment
// returns a Table whose rows are what cmd/dfbench prints (and
// TestGoldenTables pins) and whose typed rows the shape tests assert on.
//
// The paper is a vision paper with no numeric results, so each
// experiment reproduces the *scenario* a figure or section describes and
// checks the qualitative shape the paper predicts (who wins, by roughly
// what factor, where crossovers fall).
package experiments

import (
	"fmt"
	"reflect"
	"strings"
	"time"
)

// Table is one experiment's output: a titled grid of rows.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  string
	// Metrics carries the experiment's key scalars in machine-readable
	// form; dfbench -json exports them as the run's perf artifact so CI
	// can track them without parsing rendered rows. Run-wide totals live
	// here too: E23's encodedEval and decodedBytesSaved, E24's store
	// account (storage.ReadStats.Each's names), speculativeMorsels and
	// breakerTrips, E26's readRepairs, scrubRepairs, recloned and
	// repairBytes, and the faultSeed behind E24's and E26's schedules.
	Metrics map[string]float64
}

// Result is a sweep's output: its table, plus the typed row behind each
// table row, in the same order. R declares the table's columns: each
// field tagged col:"<header>[,<format>]" is one column, in field order
// (render lists the formats); untagged fields are not printed.
type Result[R any] struct {
	*Table
	Rows []R
}

// newResult starts a sweep whose header is R's column headers.
func newResult[R any](id, title, notes string) *Result[R] {
	t := &Table{ID: id, Title: title, Notes: notes}
	for _, c := range columns(reflect.TypeFor[R]()) {
		t.Header = append(t.Header, c.header)
	}
	return &Result[R]{Table: t}
}

// put appends one typed row and the table row rendered from it.
func (r *Result[R]) put(row R) {
	r.Rows = append(r.Rows, row)
	r.Table.put(row)
}

// put appends the table row rendered from row's tagged fields.
func (t *Table) put(row any) {
	v := reflect.ValueOf(row)
	var cells []string
	for _, c := range columns(v.Type()) {
		cells = append(cells, render(v.Field(c.field).Interface(), c.format))
	}
	t.Rows = append(t.Rows, cells)
}

// column is one tagged field of a row type.
type column struct {
	field          int
	header, format string
}

// columns lists row type t's tagged fields in field order.
func columns(t reflect.Type) []column {
	var cols []column
	for i := 0; i < t.NumField(); i++ {
		if tag, ok := t.Field(i).Tag.Lookup("col"); ok {
			header, format, _ := strings.Cut(tag, ",")
			cols = append(cols, column{i, header, format})
		}
	}
	return cols
}

// render prints one cell. A format is a fmt verb ("%.2f", "%.3gx"), pct
// (a fraction printed as a percentage, "%.1f%%"), or us or ms (a
// time.Duration rounded to that unit); a leading "-" prints a zero value
// as "-". With no format a float prints compactly (%.3g) and anything
// else with %v, which is a fmt.Stringer's String.
func render(v any, format string) string {
	if rest, ok := strings.CutPrefix(format, "-"); ok {
		if reflect.ValueOf(v).IsZero() {
			return "-"
		}
		format = rest
	}
	switch format {
	case "":
		if x, ok := v.(float64); ok {
			return fmt.Sprintf("%.3g", x)
		}
		return fmt.Sprint(v)
	case "pct":
		return fmt.Sprintf("%.1f%%", v.(float64)*100)
	case "us":
		return v.(time.Duration).Round(time.Microsecond).String()
	case "ms":
		return v.(time.Duration).Round(time.Millisecond).String()
	}
	return fmt.Sprintf(format, v)
}

// slash is a cell of several counts, printed a/b[/c]: ok/total,
// launched/won.
type slash []int64

func (s slash) String() string {
	parts := make([]string, len(s))
	for i, n := range s {
		parts[i] = fmt.Sprint(n)
	}
	return strings.Join(parts, "/")
}

// AddRow appends a row built from the given cells; only E21 and E25,
// whose rows are not of one type, build theirs by hand.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// SetMetric records one machine-readable scalar for the JSON artifact.
func (t *Table) SetMetric(name string, v float64) {
	if t.Metrics == nil {
		t.Metrics = make(map[string]float64)
	}
	t.Metrics[name] = v
}

// AddMetric adds v to a run-wide total, creating it at v.
func (t *Table) AddMetric(name string, v float64) {
	t.SetMetric(name, t.Metrics[name]+v)
}

// String renders the table in aligned plain text.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	// A row shorter than the header (E16's last) pads the missing cells.
	writeRow := func(cells []string) {
		for i, w := range widths {
			if i > 0 {
				b.WriteString("  ")
			}
			var c string
			if i < len(cells) {
				c = cells[i]
			}
			fmt.Fprintf(&b, "%-*s", w, c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	for _, row := range t.Rows {
		writeRow(row)
	}
	if t.Notes != "" {
		fmt.Fprintf(&b, "note: %s\n", t.Notes)
	}
	return b.String()
}
