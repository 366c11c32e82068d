package experiments

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from this run instead of comparing")

// goldenRows is the workload size the committed yardstick was generated
// at (dfbench -rows 20000).
const goldenRows = 20000

// The yardstick as a test: every deterministic catalogue entry's table
// as dfbench prints it, its Metrics as -json writes them (sorted keys)
// and the E20 trace must equal the committed files byte for byte. A
// change that moves a cell shows the cell in its diff of testdata/
// (`go test ./internal/experiments -run TestGoldenTables -update`
// rewrites them); a change that must not move one leaves testdata/
// untouched.
func TestGoldenTables(t *testing.T) {
	type entry struct {
		ID      string             `json:"id"`
		Metrics map[string]float64 `json:"metrics,omitempty"`
	}
	var tables bytes.Buffer
	var entries []entry
	for _, e := range Catalogue {
		if e.WallClock {
			continue
		}
		tab, err := e.Run(goldenRows, Options{})
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		tables.WriteString(tab.String())
		tables.WriteByte('\n')
		entries = append(entries, entry{ID: tab.ID, Metrics: tab.Metrics})
	}
	metrics, err := json.MarshalIndent(entries, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	var trace bytes.Buffer
	if err := WriteOverlapTrace(&trace, goldenRows); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "tables.golden", tables.Bytes())
	checkGolden(t, "metrics.golden", append(metrics, '\n'))
	checkGolden(t, "e20_trace.golden", trace.Bytes())
}

// checkGolden compares got with testdata/name, or rewrites the file
// under -update. On a mismatch it reports the first differing line.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gotLines, wantLines := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		var g, w []byte
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if !bytes.Equal(g, w) {
			t.Fatalf("%s differs from this run at line %d:\n  golden: %s\n  got:    %s", path, i+1, w, g)
		}
	}
}
