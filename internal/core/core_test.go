package core

import (
	"context"
	"strings"
	"testing"

	"repro/internal/columnar"
	"repro/internal/fabric"
	"repro/internal/plan"
	"repro/internal/sim"
	"repro/internal/workload"
)

const testRows = 20000

func newEngines(t *testing.T) (*DataFlowEngine, *VolcanoEngine, workload.LineitemConfig) {
	t.Helper()
	cfg := workload.DefaultLineitemConfig(testRows)
	data := workload.GenLineitem(cfg)

	df := NewDataFlowEngine(fabric.NewCluster(fabric.DefaultClusterConfig()))
	if err := df.CreateTable("lineitem", workload.LineitemSchema()); err != nil {
		t.Fatal(err)
	}
	if err := df.Load("lineitem", data); err != nil {
		t.Fatal(err)
	}

	vo := NewVolcanoEngine(fabric.NewCluster(fabric.LegacyClusterConfig()), 256*sim.MB)
	if err := vo.CreateTable("lineitem", workload.LineitemSchema()); err != nil {
		t.Fatal(err)
	}
	if err := vo.Load("lineitem", data); err != nil {
		t.Fatal(err)
	}
	return df, vo, cfg
}

// resultRowsByKey indexes result rows by their first column's string
// form, for order-insensitive comparison.
func resultRowsByKey(r *Result) map[string][]columnar.Value {
	out := make(map[string][]columnar.Value)
	for _, b := range r.Batches {
		for i := 0; i < b.NumRows(); i++ {
			row := b.Row(i)
			out[row[0].String()] = row
		}
	}
	return out
}

func assertSameResults(t *testing.T, a, b *Result) {
	t.Helper()
	if a.Rows() != b.Rows() {
		t.Fatalf("row counts differ: %d vs %d", a.Rows(), b.Rows())
	}
	am, bm := resultRowsByKey(a), resultRowsByKey(b)
	for k, ar := range am {
		br, ok := bm[k]
		if !ok {
			t.Fatalf("key %q missing from second result", k)
		}
		if len(ar) != len(br) {
			t.Fatalf("key %q: widths differ", k)
		}
		for i := range ar {
			if ar[i].Type == columnar.Float64 {
				diff := ar[i].F - br[i].F
				if diff < 0 {
					diff = -diff
				}
				if diff > 1e-6*(1+abs(ar[i].F)) {
					t.Fatalf("key %q col %d: %v vs %v", k, i, ar[i], br[i])
				}
				continue
			}
			if !ar[i].Equal(br[i]) {
				t.Fatalf("key %q col %d: %v vs %v", k, i, ar[i], br[i])
			}
		}
	}
}

func abs(f float64) float64 {
	if f < 0 {
		return -f
	}
	return f
}

func TestEnginesAgreeOnFilterProjection(t *testing.T) {
	df, vo, cfg := newEngines(t)
	q := plan.NewQuery("lineitem").
		WithFilter(workload.SelectivityFilter(cfg, 0.05)).
		WithProjection(workload.LOrderKey, workload.LExtendedPrice)
	dfRes, err := df.Execute(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	voRes, err := vo.Execute(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if dfRes.Rows() == 0 {
		t.Fatal("empty result")
	}
	assertSameResults(t, dfRes, voRes)
}

func TestEnginesAgreeOnGroupBy(t *testing.T) {
	df, vo, _ := newEngines(t)
	q := plan.NewQuery("lineitem").WithGroupBy(workload.PricingSummary())
	dfRes, err := df.Execute(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	voRes, err := vo.Execute(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if dfRes.Rows() != 3 { // three return flags
		t.Fatalf("groups = %d, want 3", dfRes.Rows())
	}
	assertSameResults(t, dfRes, voRes)
}

func TestEnginesAgreeOnFilteredGroupBy(t *testing.T) {
	df, vo, cfg := newEngines(t)
	q := plan.NewQuery("lineitem").
		WithFilter(workload.SelectivityFilter(cfg, 0.2)).
		WithGroupBy(workload.PricingSummary())
	dfRes, err := df.Execute(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	voRes, err := vo.Execute(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResults(t, dfRes, voRes)
}

func TestEnginesAgreeOnCount(t *testing.T) {
	df, vo, cfg := newEngines(t)
	q := plan.NewQuery("lineitem").
		WithFilter(workload.SelectivityFilter(cfg, 0.1)).
		WithCount()
	dfRes, err := df.Execute(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	voRes, err := vo.Execute(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	dfCount := dfRes.Batches[0].Col(0).Int64s()[0]
	voCount := voRes.Batches[0].Col(0).Int64s()[0]
	if dfCount != voCount || dfCount == 0 {
		t.Fatalf("counts differ: %d vs %d", dfCount, voCount)
	}
}

func TestEnginesAgreeOnHighCardinalityGroupBy(t *testing.T) {
	// Part-level aggregation: more groups than the accelerators' state
	// budgets force spill-and-merge correctness end to end.
	df, vo, _ := newEngines(t)
	q := plan.NewQuery("lineitem").WithGroupBy(workload.PartVolume())
	dfRes, err := df.Execute(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	voRes, err := vo.Execute(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResults(t, dfRes, voRes)
}

func TestDataFlowMovesFewerBytes(t *testing.T) {
	df, vo, cfg := newEngines(t)
	q := plan.NewQuery("lineitem").
		WithFilter(workload.SelectivityFilter(cfg, 0.02)).
		WithProjection(workload.LExtendedPrice)
	dfRes, err := df.Execute(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	voRes, err := vo.Execute(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	// Figure 2's claim: pushdown cuts the bytes crossing the fabric.
	if dfRes.Stats.MovedBytes*2 >= voRes.Stats.MovedBytes {
		t.Errorf("dataflow moved %v, volcano %v; want >=2x reduction",
			dfRes.Stats.MovedBytes, voRes.Stats.MovedBytes)
	}
	// And the CPU touches far less data.
	if dfRes.Stats.CPUBytes*4 >= voRes.Stats.CPUBytes {
		t.Errorf("dataflow CPU bytes %v, volcano %v; want >=4x reduction",
			dfRes.Stats.CPUBytes, voRes.Stats.CPUBytes)
	}
}

// A warm pass over a table the pool holds misses nothing, so it saves
// exactly the storage round trips the cold pass paid — one per miss —
// and nothing else: SimTime must charge a query its own misses only.
func TestVolcanoWarmPassPaysNoRoundTrips(t *testing.T) {
	_, vo, _ := newEngines(t)
	q := plan.NewQuery("lineitem").WithGroupBy(workload.PricingSummary())
	cold, err := vo.Execute(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	misses := vo.Pool.Stats().Misses
	warm, err := vo.Execute(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if misses == 0 || vo.Pool.Stats().Misses != misses {
		t.Fatalf("misses cold %d, after warm %d: want a cold pass that misses and a warm pass that does not",
			misses, vo.Pool.Stats().Misses)
	}
	path, err := vo.Cluster.Path(fabric.DevStorageMed, fabric.ComputeDev(0, "dram"))
	if err != nil {
		t.Fatal(err)
	}
	var roundTrip sim.VTime
	for _, l := range path {
		roundTrip += l.Latency
	}
	if want := cold.Stats.SimTime - sim.VTime(misses)*roundTrip; warm.Stats.SimTime != want {
		t.Errorf("warm SimTime %v, want cold %v - %d misses x %v = %v",
			warm.Stats.SimTime, cold.Stats.SimTime, misses, roundTrip, want)
	}
}

func TestDataFlowNeedsLessMemory(t *testing.T) {
	// Section 7.4: the stateless pipeline's compute-side memory stays
	// flat as the table grows, while the buffer-pool engine's footprint
	// scales with the data. Measure the growth factor from a 4x table
	// growth on each engine.
	peaks := func(rows int) (sim.Bytes, sim.Bytes) {
		cfg := workload.DefaultLineitemConfig(rows)
		data := workload.GenLineitem(cfg)
		q := plan.NewQuery("lineitem").WithGroupBy(workload.PricingSummary())

		df := NewDataFlowEngine(fabric.NewCluster(fabric.DefaultClusterConfig()))
		if err := df.CreateTable("lineitem", workload.LineitemSchema()); err != nil {
			t.Fatal(err)
		}
		if err := df.Load("lineitem", data); err != nil {
			t.Fatal(err)
		}
		dfRes, err := df.Execute(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}

		vo := NewVolcanoEngine(fabric.NewCluster(fabric.LegacyClusterConfig()), 256*sim.MB)
		if err := vo.CreateTable("lineitem", workload.LineitemSchema()); err != nil {
			t.Fatal(err)
		}
		if err := vo.Load("lineitem", data); err != nil {
			t.Fatal(err)
		}
		voRes, err := vo.Execute(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		return dfRes.Stats.PeakMemory, voRes.Stats.PeakMemory
	}
	dfSmall, voSmall := peaks(10000)
	dfBig, voBig := peaks(40000)
	voGrowth := float64(voBig) / float64(voSmall)
	dfGrowth := float64(dfBig) / float64(dfSmall)
	if voGrowth < 2 {
		t.Errorf("volcano peak grew only %.2fx for 4x data (%v -> %v)", voGrowth, voSmall, voBig)
	}
	if dfGrowth > 1.5 {
		t.Errorf("dataflow peak grew %.2fx for 4x data (%v -> %v); want flat", dfGrowth, dfSmall, dfBig)
	}
	if dfBig >= voBig {
		t.Errorf("at 40k rows dataflow peak %v >= volcano %v", dfBig, voBig)
	}
}

func TestExecStatsPopulated(t *testing.T) {
	df, _, cfg := newEngines(t)
	q := plan.NewQuery("lineitem").WithFilter(workload.SelectivityFilter(cfg, 0.1)).WithCount()
	res, err := df.Execute(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if st.Engine != "dataflow" || st.Variant == "" {
		t.Errorf("engine/variant = %q/%q", st.Engine, st.Variant)
	}
	if st.SimTime <= 0 || st.MovedBytes <= 0 || len(st.LinkBytes) == 0 || len(st.DeviceBusy) == 0 {
		t.Errorf("stats incomplete: %+v", st)
	}
	if st.Scan.SegmentsTotal == 0 {
		t.Error("scan stats missing")
	}
	if len(st.Ports) == 0 {
		t.Error("port stats missing")
	}
	if st.ControlOverhead() <= 0 || st.ControlOverhead() > 1 {
		t.Errorf("control overhead = %v, want (0,1]", st.ControlOverhead())
	}
	if !strings.Contains(st.String(), "dataflow") {
		t.Error("String() missing engine")
	}
}

func TestOrderByAndLimit(t *testing.T) {
	df, vo, _ := newEngines(t)
	q := plan.NewQuery("lineitem").
		WithGroupBy(workload.PricingSummary()).
		WithOrderBy(1). // by count
		WithLimit(2)
	dfRes, err := df.Execute(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	voRes, err := vo.Execute(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if dfRes.Rows() != 2 || voRes.Rows() != 2 {
		t.Fatalf("limited rows = %d / %d, want 2", dfRes.Rows(), voRes.Rows())
	}
	// Ascending by count: first row's count <= second's.
	counts := dfRes.Batches[0].Col(1).Int64s()
	if len(counts) == 2 && counts[0] > counts[1] {
		t.Error("ORDER BY not ascending")
	}
}

func TestExecuteErrors(t *testing.T) {
	df, vo, _ := newEngines(t)
	if _, err := df.Execute(context.Background(), plan.NewQuery("ghost")); err == nil {
		t.Error("dataflow query on unknown table succeeded")
	}
	if _, err := vo.Execute(context.Background(), plan.NewQuery("ghost")); err == nil {
		t.Error("volcano query on unknown table succeeded")
	}
	if _, err := df.Execute(context.Background(), plan.NewQuery("")); err == nil {
		t.Error("invalid query accepted")
	}
}

func TestExecutePlanForcedVariants(t *testing.T) {
	df, _, cfg := newEngines(t)
	q := plan.NewQuery("lineitem").
		WithFilter(workload.SelectivityFilter(cfg, 0.05)).
		WithProjection(workload.LExtendedPrice)
	variants, err := df.Plan(q, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(variants) < 2 {
		t.Fatalf("only %d variants", len(variants))
	}
	var rows []int64
	byVariant := map[string]*Result{}
	for _, v := range variants {
		res, err := df.ExecutePlan(context.Background(), v)
		if err != nil {
			t.Fatalf("variant %s: %v", v.Variant, err)
		}
		rows = append(rows, res.Rows())
		byVariant[v.Variant] = res
	}
	for i := 1; i < len(rows); i++ {
		if rows[i] != rows[0] {
			t.Fatalf("variants disagree on result rows: %v", rows)
		}
	}
	// The cpu-only variant must move more than any offload variant.
	cpu, ok := byVariant["cpu-only"]
	if !ok {
		t.Fatal("no cpu-only variant")
	}
	for name, res := range byVariant {
		if name == "cpu-only" {
			continue
		}
		if res.Stats.MovedBytes >= cpu.Stats.MovedBytes {
			t.Errorf("variant %s moved %v >= cpu-only %v", name, res.Stats.MovedBytes, cpu.Stats.MovedBytes)
		}
	}
}

func TestSchedulerIntegration(t *testing.T) {
	df, _, cfg := newEngines(t)
	q := plan.NewQuery("lineitem").WithFilter(workload.SelectivityFilter(cfg, 0.1)).WithCount()
	// Sequential executions must admit and release cleanly.
	for i := 0; i < 3; i++ {
		if _, err := df.Execute(context.Background(), q); err != nil {
			t.Fatal(err)
		}
	}
	if df.Scheduler.ActiveCount() != 0 {
		t.Error("admissions leaked")
	}
}

func TestLegacyClusterDataflowDegradesGracefully(t *testing.T) {
	// A data-flow engine on a dumb fabric must still answer correctly
	// (everything lands on the CPU).
	cfg := workload.DefaultLineitemConfig(5000)
	data := workload.GenLineitem(cfg)
	df := NewDataFlowEngine(fabric.NewCluster(fabric.LegacyClusterConfig()))
	if err := df.CreateTable("lineitem", workload.LineitemSchema()); err != nil {
		t.Fatal(err)
	}
	if err := df.Load("lineitem", data); err != nil {
		t.Fatal(err)
	}
	q := plan.NewQuery("lineitem").
		WithFilter(workload.SelectivityFilter(cfg, 0.1)).
		WithGroupBy(workload.PricingSummary())
	res, err := df.Execute(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows() != 3 {
		t.Fatalf("groups = %d, want 3", res.Rows())
	}
	if res.Stats.Variant != "cpu-only" {
		t.Errorf("legacy fabric chose variant %q", res.Stats.Variant)
	}
}

func TestResultFormat(t *testing.T) {
	df, _, _ := newEngines(t)
	res, err := df.Execute(context.Background(), plan.NewQuery("lineitem").WithGroupBy(workload.PricingSummary()))
	if err != nil {
		t.Fatal(err)
	}
	out := res.Format(2)
	if !strings.Contains(out, "l_returnflag") || !strings.Contains(out, "more rows") {
		t.Errorf("Format output:\n%s", out)
	}
	empty := &Result{}
	if empty.Format(5) != "(empty)\n" {
		t.Error("empty format wrong")
	}
	if empty.Schema() != nil {
		t.Error("empty schema not nil")
	}
}

func TestLoadStats(t *testing.T) {
	b := columnar.NewBatch(workload.KVSchema(), 4)
	b.AppendRow(columnar.IntValue(5), columnar.IntValue(1))
	b.AppendRow(columnar.IntValue(-3), columnar.IntValue(1))
	b.AppendRow(columnar.IntValue(5), columnar.IntValue(2))
	b.AppendRow(columnar.NullValue(columnar.Int64), columnar.IntValue(3))
	st := loadedStats(t, b)
	if st.Rows != 4 || st.Distinct[0] != 2 || st.MinInt[0] != -3 || st.MaxInt[0] != 5 || !st.IntBounds[0] {
		t.Errorf("stats = %+v", st)
	}
	merged := MergeStats(st, st)
	if merged.Rows != 8 || merged.Distinct[0] != 4 {
		t.Errorf("merged = %+v", merged)
	}
}

func TestCountOnlyMinimalShipping(t *testing.T) {
	// When counting on a smart fabric the result crossing the network
	// must be tiny regardless of table width.
	df, _, _ := newEngines(t)
	q := plan.NewQuery("lineitem").WithCount()
	res, err := df.Execute(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Batches[0].Col(0).Int64s()[0] != testRows {
		t.Fatalf("count = %d", res.Batches[0].Col(0).Int64s()[0])
	}
	// Bytes on the network segment (storage.nic--switch) must be orders
	// of magnitude below the table size.
	net := res.Stats.LinkBytes["storage.nic--switch"]
	if net > 100*sim.KB {
		t.Errorf("COUNT shipped %v over the network", net)
	}
}

func TestExpressionPushdownVariantChargesStorage(t *testing.T) {
	df, _, cfg := newEngines(t)
	q := plan.NewQuery("lineitem").
		WithFilter(workload.SelectivityFilter(cfg, 0.01)).
		WithProjection(workload.LExtendedPrice)
	res, err := df.Execute(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.DeviceBusy[fabric.DevStorageProc] == 0 {
		t.Error("storage processor idle despite pushdown")
	}
}

// TestVolcanoLimitStopsPulling: LIMIT is the one operator the pull model
// runs better than a push stage could: once it has its rows it stops
// pulling, so a cold pool misses fewer segments than the table has. The
// rows are the data-flow engine's.
func TestVolcanoLimitStopsPulling(t *testing.T) {
	const segments = 5
	data := workload.GenLineitem(workload.DefaultLineitemConfig(testRows))
	df := NewDataFlowEngine(fabric.NewCluster(fabric.DefaultClusterConfig()))
	vo := NewVolcanoEngine(fabric.NewCluster(fabric.LegacyClusterConfig()), 256*sim.MB)
	vo.Workers = 1
	df.Storage.SegmentRows, vo.Storage.SegmentRows = testRows/segments, testRows/segments
	for _, eng := range []interface {
		CreateTable(string, *columnar.Schema) error
		Load(string, *columnar.Batch) error
	}{df, vo} {
		if err := eng.CreateTable("lineitem", workload.LineitemSchema()); err != nil {
			t.Fatal(err)
		}
		if err := eng.Load("lineitem", data); err != nil {
			t.Fatal(err)
		}
	}
	meta, err := vo.Storage.Table("lineitem")
	if err != nil {
		t.Fatal(err)
	}
	if n := len(vo.Storage.SegmentKeys(meta)); n != segments {
		t.Fatalf("table has %d segments, want %d", n, segments)
	}
	q := plan.NewQuery("lineitem").WithLimit(10)
	voRes, err := vo.Execute(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if misses := vo.Pool.Stats().Misses; misses >= segments {
		t.Errorf("cold pool missed %d of %d segments: the pull did not stop at the limit", misses, segments)
	}
	dfRes, err := df.Execute(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if voRes.Rows() != 10 {
		t.Fatalf("volcano returned %d rows, want 10", voRes.Rows())
	}
	assertSameResults(t, dfRes, voRes)
}

// ControlOverhead reports credit messages per data message across all
// ports, the Section 7.1 "low traffic" check. Returns 0 with no ports.
func (s ExecStats) ControlOverhead() float64 {
	var data, credit int64
	for _, p := range s.Ports {
		data += p.DataMessages
		credit += p.CreditMessages
	}
	if data == 0 {
		return 0
	}
	return float64(credit) / float64(data)
}
