package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
)

// testConfig is the run shape shrunk to finish in well under a second
// per workload: 8,192 rows, 3 ops per phase, a token traced pass.
func testConfig(seed uint64) config {
	return config{seed: seed, rows: 8192, maxOps: 3, setupReps: 1, traced: 0.05}
}

type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		t.Fatal(err)
	}
	return m
}

// BENCHMARK.json and the program must name the same workloads and
// metrics, with the same units, directions and bounds.
func TestManifestMatchesProgram(t *testing.T) {
	m := readManifest(t)
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	unique := func(name string) {
		t.Helper()
		if !nameRE.MatchString(name) {
			t.Errorf("name %q uses characters outside letters, digits, _ . -", name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}

	if len(m.Workloads) != len(workloadDefs) {
		t.Fatalf("manifest has %d workloads, program %d", len(m.Workloads), len(workloadDefs))
	}
	for i, def := range workloadDefs {
		unique(def.name)
		if got := m.Workloads[i]; got.Name != def.name || got.Why != def.why {
			t.Errorf("workload %d: manifest has %q (%q), program %q (%q)", i, got.Name, got.Why, def.name, def.why)
		}
		if len(def.why) > 200 || strings.Contains(def.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", def.name, len(def.why))
		}
	}
	check := func(kind string, got []manifestMetric, defs []metricDef, bounded bool) {
		t.Helper()
		if len(got) != len(defs) {
			t.Fatalf("%s: manifest has %d metrics, program %d", kind, len(got), len(defs))
		}
		for i, def := range defs {
			unique(def.name)
			if !unitRE.MatchString(def.unit) {
				t.Errorf("%s: unit %q is not a valid unit", def.name, def.unit)
			}
			g := got[i]
			if g.Name != def.name || g.Unit != def.unit || g.Better != def.better {
				t.Errorf("%s %d: manifest has %+v, program %s %s %s", kind, i, g, def.name, def.unit, def.better)
			}
			switch {
			case !bounded && g.Bound != nil:
				t.Errorf("%s: a per-layer metric has no bound", def.name)
			case bounded && (g.Bound == nil || *g.Bound != def.bound || def.bound <= 0 || def.bound > 0.25):
				t.Errorf("%s: manifest bound %v, program %v; must be equal and in (0, 0.25]", def.name, g.Bound, def.bound)
			}
		}
	}
	check("end_to_end", m.EndToEnd, endToEndDefs, true)
	check("per_layer", m.PerLayer, perLayerDefs, false)
	if m.EndToEnd[0].Name != "setup_s" || m.EndToEnd[0].Unit != "s" || m.EndToEnd[0].Better != "lower" {
		t.Errorf("the contract asks for setup_s in s, lower is better")
	}
}

// Every workload emits every metric exactly once, by name and with its
// unit, and no op fails.
func TestEveryMetricEmittedOnce(t *testing.T) {
	for _, def := range workloadDefs {
		r := runWorkload(testConfig(1), def.name, traceBoth)
		if !r.correct() {
			t.Fatalf("%s: failed=%d err=%v", def.name, r.failed, r.err)
		}
		var out bytes.Buffer
		r.print(&out)
		lines := map[string]int{}
		for _, line := range strings.Split(out.String(), "\n") {
			if f := strings.Fields(line); len(f) >= 3 {
				lines[f[0]+" "+f[2]]++
			}
		}
		var parsed struct {
			Correct   bool
			Attempted int
			Failed    int
			Metrics   map[string]jsonMetric
		}
		if err := json.Unmarshal([]byte(r.contractLine()), &parsed); err != nil {
			t.Fatal(err)
		}
		if !parsed.Correct || parsed.Attempted < 1 || parsed.Failed != 0 {
			t.Errorf("%s: result line says %+v", def.name, parsed)
		}
		all := append(append([]metricDef(nil), endToEndDefs...), perLayerDefs...)
		if len(parsed.Metrics) != len(all) {
			t.Errorf("%s: result line has %d metrics, want %d", def.name, len(parsed.Metrics), len(all))
		}
		for _, md := range all {
			if n := lines[md.name+" "+md.unit]; n != 1 {
				t.Errorf("%s: %s [%s] printed %d times, want once", def.name, md.name, md.unit, n)
			}
			if got, ok := parsed.Metrics[md.name]; !ok || got.Unit != md.unit {
				t.Errorf("%s: result line has %s = %+v (present %v), want unit %s", def.name, md.name, got, ok, md.unit)
			}
		}
		for _, md := range endToEndDefs {
			if r.endToEnd[md.name] <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, must never be 0", def.name, md.name, r.endToEnd[md.name])
			}
		}
	}
}

// The simulator's statistics repeat bit for bit at one seed and move
// with the data.
func TestExactMetricsRepeat(t *testing.T) {
	exact := func(seed uint64, workload string) [3]float64 {
		r := runWorkload(testConfig(seed), workload, traceOff)
		if !r.correct() {
			t.Fatalf("%s seed %d: failed=%d err=%v", workload, seed, r.failed, r.err)
		}
		var out [3]float64
		i := 0
		for _, md := range endToEndDefs {
			if md.exact {
				out[i] = r.endToEnd[md.name]
				i++
			}
		}
		if i != 3 {
			t.Fatalf("%d exact metrics, want 3", i)
		}
		return out
	}
	for _, def := range workloadDefs {
		a, b := exact(1, def.name), exact(1, def.name)
		if a != b {
			t.Errorf("%s: exact metrics differ at one seed: %v vs %v", def.name, a, b)
		}
		// At 8,192 rows the ingest batch encodes to the same size at both
		// seeds, and its read-back moves the same bytes.
		if c := exact(2, def.name); a == c && def.name != "ingest" {
			t.Errorf("%s: exact metrics %v do not change with the seed", def.name, a)
		}
	}
}

// An op that misses the oracle is a failed op, and its latency is not
// counted.
func TestWrongOracleFailsOps(t *testing.T) {
	fx, err := setup(testConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"scan-selective", "agg-lowcard"} {
		w, d, err := fx.workload(name)
		if err != nil {
			t.Fatal(err)
		}
		var good phase
		good.run(d, 0, 3, 1)
		if good.failed != 0 || len(good.lat) != 3 {
			t.Fatalf("%s: true oracle: failed=%d samples=%d err=%v", name, good.failed, len(good.lat), good.firstErr)
		}
		w.ref.sum++
		for k, g := range w.ref.groups {
			g.sumQty++
			w.ref.groups[k] = g
		}
		var bad phase
		bad.run(d, 0, 3, 1)
		if bad.failed != 3 || len(bad.lat) != 0 {
			t.Errorf("%s: wrong oracle: failed=%d samples=%d, want 3 and 0", name, bad.failed, len(bad.lat))
		}
	}
}

func TestTailPercentile(t *testing.T) {
	// The samples are 1..n, so a value is its own rank and n minus the
	// value is how many samples lie beyond it.
	for _, tc := range []struct {
		n         int
		want, pct float64
	}{
		{1000, 990, 99},
		{100, 90, 90},
		{21, 11, 100 * 11.0 / 21}, // the smallest sample with 10 beyond its upper median
		{20, 11, 55},              // too few for a tail: the median
		{5, 3, 60},
		{1, 1, 100},
	} {
		xs := make([]float64, tc.n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		got, pct := tailPercentile(xs)
		if got != tc.want || pct != tc.pct {
			t.Errorf("n=%d: got %v at p%v, want %v at p%v", tc.n, got, pct, tc.want, tc.pct)
		}
		if beyond := tc.n - int(got); tc.n > 2*tailBeyond && beyond != tailBeyond {
			t.Errorf("n=%d: %d samples beyond the tail, want %d", tc.n, beyond, tailBeyond)
		}
	}
	if v, p := tailPercentile(nil); v != 0 || p != 0 {
		t.Errorf("empty: got %v at p%v", v, p)
	}
}

func TestBlockSpread(t *testing.T) {
	if got := blockSpreadPct([]float64{10, 11, 12, 10, 9}); got != 30 {
		t.Errorf("spread = %v, want (12-9)/10 = 30%%", got)
	}
	if got := blockSpreadPct([]float64{7, 7, 7}); got != 0 {
		t.Errorf("flat blocks: spread = %v, want 0", got)
	}
	if got := blockSpreadPct(nil); got != 0 {
		t.Errorf("no blocks: spread = %v, want 0", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}
