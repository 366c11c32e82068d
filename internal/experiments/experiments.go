// Package experiments implements every experiment in EXPERIMENTS.md —
// one per figure or Section-7 claim of the paper. Each experiment
// returns a Table whose rows are what cmd/dfbench prints and whose
// derived quantities the test suite and benchmark harness assert on.
//
// The paper is a vision paper with no numeric results, so each
// experiment reproduces the *scenario* a figure or section describes and
// checks the qualitative shape the paper predicts (who wins, by roughly
// what factor, where crossovers fall).
package experiments

import (
	"fmt"
	"strings"
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
// table row, in the same order.
type Result[R any] struct {
	*Table
	Rows []R
}

// add appends one typed row and the table row rendered from it.
func (r *Result[R]) add(row R, cells ...string) {
	r.Rows = append(r.Rows, row)
	r.Table.AddRow(cells...)
}

// AddRow appends a row built from the given cells.
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
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
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

// f formats a float compactly.
func f(v float64) string { return fmt.Sprintf("%.3g", v) }

// d formats an integer.
func d(v int64) string { return fmt.Sprintf("%d", v) }
