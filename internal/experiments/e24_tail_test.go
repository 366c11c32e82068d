package experiments

import (
	"testing"
	"time"
)

// e24TestOptions shrinks the sweep so the test stays fast while the
// injected slowness still dwarfs scheduling noise. BaseLatency must sit
// near the platform timer quantum (~1ms on coarse-tick kernels) so the
// severity multiplier, not sleep rounding, dominates the tail.
func e24TestOptions() E24Options {
	return E24Options{
		Severities:  []float64{1, 16},
		Trials:      6,
		BaseLatency: 500 * time.Microsecond,
		Workers:     2,
		Segments:    12,
	}
}

func TestE24TailLatencyShape(t *testing.T) {
	res, err := E24TailLatency(3000, e24TestOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d, want 2 severities x 2 arms", len(res.Rows))
	}
	byCell := map[[2]bool]E24Row{}
	for _, row := range res.Rows {
		byCell[[2]bool{row.Severity > 1, row.Hedge}] = row
	}

	// Healthy fabric: the defenses must be near-free. The hedge delay
	// sits above the healthy read latency, so duplicate reads stay rare;
	// the acceptance bound is <= 10% extra media bytes.
	healthyOn := byCell[[2]bool{false, true}]
	if healthyOn.Scan.MediaBytes == 0 {
		t.Fatal("healthy hedged cell read no media bytes")
	}
	if pct := 100 * float64(healthyOn.ExtraBytes()) / float64(healthyOn.Scan.MediaBytes); pct > 10 {
		t.Errorf("healthy fabric: defenses burned %.1f%% extra bytes, want <= 10%%", pct)
	}

	// Gray failure: hedging + speculation must buy the tail back at
	// least 2x while the baseline waits out the slow replica.
	slowOn := byCell[[2]bool{true, true}]
	slowOff := byCell[[2]bool{true, false}]
	if slowOff.P99 == 0 || slowOn.P99 == 0 {
		t.Fatal("missing p99 samples")
	}
	if slowOn.Speedup99 < 2 {
		t.Errorf("p99 speedup under gray failure = %.2fx (off %v, on %v), want >= 2x",
			slowOn.Speedup99, slowOff.P99, slowOn.P99)
	}
	// The win must come from the defenses actually firing.
	if slowOn.Scan.HedgedReads+slowOn.Scan.SpeculativeMorsels == 0 {
		t.Error("gray-failure cell launched no hedges and no speculation")
	}
	// The baseline arm never duplicates work.
	if slowOff.Scan.HedgedReads != 0 || slowOff.Scan.SpeculativeMorsels != 0 || slowOff.ExtraBytes() != 0 {
		t.Errorf("baseline arm recorded defense activity: hedged=%d speculated=%d extra=%v",
			slowOff.Scan.HedgedReads, slowOff.Scan.SpeculativeMorsels, slowOff.ExtraBytes())
	}

	if res.Table == nil || len(res.Table.Rows) != len(res.Rows) {
		t.Fatal("table rows do not match sweep rows")
	}
	if _, ok := res.Table.Metrics["speedup99@16"]; !ok {
		t.Error("missing speedup99@16 metric")
	}
	if _, ok := res.Table.Metrics["extra_bytes_pct@healthy"]; !ok {
		t.Error("missing extra_bytes_pct@healthy metric")
	}
	if res.Table.Metrics["hedgedReads"]+res.Table.Metrics["speculativeMorsels"] == 0 {
		t.Error("table carries no defense counters for the -json artifact")
	}
}

func TestE24NoHedgeArm(t *testing.T) {
	opts := e24TestOptions()
	opts.Severities = []float64{4}
	opts.Trials = 2
	opts.NoHedge = true
	res, err := E24TailLatency(2000, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0].Hedge {
		t.Fatalf("NoHedge sweep produced %d rows (hedge arm present)", len(res.Rows))
	}
}
