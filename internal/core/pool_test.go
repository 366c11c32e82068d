package core

import (
	"context"
	"math"
	"runtime"
	"testing"

	"repro/internal/columnar"
	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/fabric"
	"repro/internal/flow"
	"repro/internal/plan"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/workload"
)

// The engine's eager scan decodes into a per-run pool and the stage that
// ends a batch releases it (columnar.Pool, storage.Server.ScanPooled).
// These tests hold that to runs that pool nothing, and to the batches
// that must never be recycled. Built with -tags poisonpool, a release overwrites the
// recycled arrays (NaN, the least BIGINT, out-of-range codes), so a read
// after release is a wrong row, not a race with the next decode.

// poolSegRows makes the scan ship every segment as three batches: two of
// storage.DefaultBatchRows and a short one.
const poolSegRows = 2*storage.DefaultBatchRows + 1500

// poolTable is five segments of lineitem, the last one short.
func poolTable() (workload.LineitemConfig, *columnar.Batch) {
	cfg := workload.DefaultLineitemConfig(4*poolSegRows + 2000)
	return cfg, workload.GenLineitem(cfg)
}

// newEnginesSized loads data as lineitem into both engines, in segments
// of segRows rows.
func newEnginesSized(t testing.TB, data *columnar.Batch, segRows int) (*DataFlowEngine, *VolcanoEngine) {
	t.Helper()
	df := NewDataFlowEngine(fabric.NewCluster(fabric.DefaultClusterConfig()))
	vo := NewVolcanoEngine(fabric.NewCluster(fabric.LegacyClusterConfig()), 256*sim.MB)
	df.Storage.SegmentRows, vo.Storage.SegmentRows = segRows, segRows
	for _, e := range []interface {
		CreateTable(string, *columnar.Schema) error
		Load(string, *columnar.Batch) error
	}{df, vo} {
		if err := e.CreateTable("lineitem", workload.LineitemSchema()); err != nil {
			t.Fatal(err)
		}
		if err := e.Load("lineitem", data); err != nil {
			t.Fatal(err)
		}
	}
	return df, vo
}

// executeUnpooled runs ph as ExecutePlan does, except that the scan is
// Storage.Scan, not ScanPooled: no batch carries a lease, every release is
// a no-op, and nothing is decoded into a recycled array.
func executeUnpooled(t *testing.T, e *DataFlowEngine, ph *plan.Physical) []*columnar.Batch {
	t.Helper()
	ctx := context.Background()
	schema, err := e.TableSchema(ph.Query.Table)
	if err != nil {
		t.Fatal(err)
	}
	spec, partials, err := e.buildScanSpec(ph, schema.NumFields())
	if err != nil {
		t.Fatal(err)
	}
	spec.Workers = e.Workers
	stages, paths, err := e.buildStages(ph, spec, partials, schema)
	if err != nil {
		t.Fatal(err)
	}
	spec.Account = e.Cluster.NewAccount()
	pipe := &flow.Pipeline{
		Name: "unpooled",
		Source: func(emit flow.Emit) error {
			_, err := e.Storage.Scan(ctx, ph.Query.Table, spec, emit)
			return err
		},
		Stages: stages, Paths: paths, Workers: e.Workers, Services: e.Services, Account: spec.Account,
	}
	var out []*columnar.Batch
	if _, err := pipe.Run(ctx, func(b *columnar.Batch) error {
		out = append(out, b)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// assertBitIdentical compares two results row for row, a DOUBLE by its
// bits.
func assertBitIdentical(t *testing.T, what string, want, got []*columnar.Batch) {
	t.Helper()
	rows := func(bs []*columnar.Batch) [][]columnar.Value {
		var out [][]columnar.Value
		for _, b := range bs {
			out = append(out, b.RowMajor()...)
		}
		return out
	}
	w, g := rows(want), rows(got)
	if len(w) != len(g) {
		t.Fatalf("%s: %d rows, want %d", what, len(g), len(w))
	}
	for i := range w {
		for c := range w[i] {
			a, b := w[i][c], g[i][c]
			same := a.Equal(b)
			if a.Type == columnar.Float64 && !a.Null && !b.Null {
				same = math.Float64bits(a.F) == math.Float64bits(b.F)
			}
			if !same {
				t.Fatalf("%s: row %d col %d is %v, want %v", what, i, c, b, a)
			}
		}
	}
}

// The pricing aggregation gives, on every variant the optimizer
// enumerates, at every width and with encoded evaluation on or off, the
// bits the same plan gives over a scan that pools nothing. One filter keeps most
// rows; the other keeps a handful, so most batches die in the filter.
func TestPooledAggregationMatchesUnpooled(t *testing.T) {
	cfg, data := poolTable()
	df, _ := newEnginesSized(t, data, poolSegRows)
	queries := map[string]*plan.Query{
		"pricing@90%": plan.NewQuery("lineitem").
			WithFilter(workload.SelectivityFilter(cfg, 0.9)).WithGroupBy(workload.PricingSummary()),
		"pricing@order0": plan.NewQuery("lineitem").
			WithFilter(expr.NewBetween(workload.LOrderKey, 0, 3)).WithGroupBy(workload.PricingSummary()),
	}
	for name, q := range queries {
		for _, workers := range []int{1, 2, 3} {
			for _, eager := range []bool{false, true} {
				df.Workers, df.EagerDecode = workers, eager
				variants, err := df.Plan(q, 0)
				if err != nil {
					t.Fatal(err)
				}
				for _, ph := range variants {
					what := name + "/" + ph.Variant
					res, err := df.ExecutePlan(context.Background(), ph)
					if err != nil {
						t.Fatalf("%s w=%d eager=%v: %v", what, workers, eager, err)
					}
					assertBitIdentical(t, what, executeUnpooled(t, df, ph), res.Batches)
				}
			}
		}
	}
}

// expectedRows is cols of the rows of data that keep passes, in order.
func expectedRows(data *columnar.Batch, cols []int, keep func(row int) bool) []*columnar.Batch {
	out := columnar.NewBatch(data.Schema().Project(cols), 0)
	for i := 0; i < data.NumRows(); i++ {
		if keep(i) {
			row := data.Row(i)
			vals := make([]columnar.Value, len(cols))
			for j, c := range cols {
				vals[j] = row[c]
			}
			out.AppendRow(vals...)
		}
	}
	return []*columnar.Batch{out}
}

// What a stage must never recycle stays intact after another query has
// run: result batches that are the scan's own (leased) batches and the
// copies a compacting boundary made of them (which share the segment's
// dictionary), the batches Volcano decodes from its buffer pool and pushes
// through the same releasing stages, and DecodeFiltered's output.
func TestUnleasedBatchesAreNeverReleased(t *testing.T) {
	cfg, data := poolTable()
	df, vo := newEnginesSized(t, data, poolSegRows)
	ctx := context.Background()
	cols := []int{workload.LOrderKey, workload.LExtendedPrice, workload.LReturnFlag}
	filter := workload.SelectivityFilter(cfg, 0.5).(*expr.Between)
	shipdate := data.Col(workload.LShipDate).Int64s()
	queries := map[string]struct {
		q    *plan.Query
		want []*columnar.Batch
	}{
		"projection": {plan.NewQuery("lineitem").WithProjection(cols...),
			expectedRows(data, cols, func(int) bool { return true })},
		"filtered": {plan.NewQuery("lineitem").WithFilter(filter).WithProjection(cols...),
			expectedRows(data, cols, func(i int) bool { return shipdate[i] >= filter.Lo && shipdate[i] <= filter.Hi })},
	}
	type kept struct {
		what      string
		got, want []*columnar.Batch
	}
	var results []kept
	for name, tc := range queries {
		for _, eager := range []bool{false, true} {
			df.EagerDecode = eager
			variants, err := df.Plan(tc.q, 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, ph := range variants {
				res, err := df.ExecutePlan(ctx, ph)
				if err != nil {
					t.Fatal(err)
				}
				results = append(results, kept{what: name + "/" + ph.Variant, got: res.Batches, want: tc.want})
			}
		}
		res, err := vo.Execute(ctx, tc.q)
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, kept{what: "volcano/" + name, got: res.Batches, want: tc.want})
	}

	// DecodeFiltered's output, handed to stages that end a batch's life.
	seg := storage.BuildSegment(0, data.Slice(0, poolSegRows))
	sel := columnar.NewBitmap(poolSegRows)
	for i := 0; i < poolSegRows; i += 3 {
		sel.Set(i)
	}
	vecs := make([]*columnar.Vector, len(cols))
	for i, c := range cols {
		v, err := seg.Columns[c].DecodeFiltered(sel)
		if err != nil {
			t.Fatal(err)
		}
		vecs[i] = v
	}
	decoded := columnar.BatchOf(data.Schema().Project(cols), vecs...)
	agg := expr.NewPartialAggregator(expr.GroupBy{GroupCols: []int{2}, Aggs: []expr.AggSpec{{Func: expr.Count}}}, decoded.Schema(), 0)
	none := expr.NewBetween(0, -2, -1)
	for _, st := range []flow.Stage{&exec.FilterStage{Pred: none}, &exec.PreAggStage{Agg: agg, Raw: true}, &exec.CountStage{}} {
		if err := st.Process(decoded, func(*columnar.Batch) error { return nil }); err != nil {
			t.Fatal(err)
		}
	}
	decoded.Release()
	results = append(results, kept{what: "DecodeFiltered", got: []*columnar.Batch{decoded},
		want: expectedRows(data, cols, func(i int) bool { return i < poolSegRows && sel.Get(i) })})

	check := func(when string) {
		for _, r := range results {
			assertBitIdentical(t, r.what+" "+when, r.want, r.got)
		}
	}
	check("after its own query")
	// The second query: the pricing aggregation on every variant, whose
	// stages release every batch they fold.
	q := plan.NewQuery("lineitem").WithFilter(filter).WithGroupBy(workload.PricingSummary())
	variants, err := df.Plan(q, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, ph := range variants {
		if _, err := df.ExecutePlan(ctx, ph); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := vo.Execute(ctx, q); err != nil {
		t.Fatal(err)
	}
	check("after a second query")
}

// BenchmarkPooledAggregation is CI's pooled-aggregation gate: agg-lowcard's
// query — the pricing aggregation at 90 % over eight 65,536-row segments,
// on the nic-offload variant, where every scanned batch dies in the
// pre-aggregation — run back to back on one engine. decoded-B/op is what
// decoding the query's columns of every segment allocates without a pool;
// a pooled run allocates a few segments' worth, however many it scans.
func BenchmarkPooledAggregation(b *testing.B) {
	const segRows = 65536
	cfg := workload.DefaultLineitemConfig(8 * segRows)
	df, _ := newEnginesSized(b, workload.GenLineitem(cfg), segRows)
	q := plan.NewQuery("lineitem").WithFilter(workload.SelectivityFilter(cfg, 0.9)).WithGroupBy(workload.PricingSummary())
	variants, err := df.Plan(q, 0)
	if err != nil {
		b.Fatal(err)
	}
	var ph *plan.Physical
	for _, v := range variants {
		if v.Variant == "nic-offload" {
			ph = v
		}
	}
	if ph == nil {
		b.Fatal("no nic-offload variant")
	}

	meta, err := df.Storage.Table("lineitem")
	if err != nil {
		b.Fatal(err)
	}
	needed := expr.ColumnSet(meta.Schema.NumFields(), q.Filter, q.GroupBy, nil)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, key := range df.Storage.SegmentKeys(meta) {
		blob, err := df.Storage.Store().GetNoCopy(context.Background(), key)
		if err != nil {
			b.Fatal(err)
		}
		seg, err := storage.UnmarshalSegment(blob)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := seg.DecodeColumns(needed); err != nil {
			b.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	decoded := float64(after.TotalAlloc - before.TotalAlloc)

	ctx := context.Background()
	if _, err := df.ExecutePlan(ctx, ph); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := df.ExecutePlan(ctx, ph); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(decoded, "decoded-B/op")
}
