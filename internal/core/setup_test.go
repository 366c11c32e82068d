package core

import (
	"context"
	"testing"

	"repro/internal/fabric"
	"repro/internal/plan"
	"repro/internal/workload"
)

// BenchmarkSmallQuery is CI's per-query set-up gate: the bench's
// small-query shape, a 1 % shipdate BETWEEN and two projected columns
// over a 4,096-row lineitem (one partial segment) through Execute at
// Workers 1, back to back on one engine. The scan reads a few hundred
// rows, so planning, admission, compiling, the pipeline's set-up and the
// stats fold are nearly all of what an op allocates.
func BenchmarkSmallQuery(b *testing.B) {
	const rows = 4096
	df := NewDataFlowEngine(fabric.NewCluster(fabric.DefaultClusterConfig()))
	df.Workers = 1
	if err := df.CreateTable("lineitem", workload.LineitemSchema()); err != nil {
		b.Fatal(err)
	}
	if err := df.Load("lineitem", workload.GenLineitem(workload.DefaultLineitemConfig(rows))); err != nil {
		b.Fatal(err)
	}
	// The bench draws the range from its 524,288-row table's shipdates;
	// the span is the same at every table size.
	q := plan.NewQuery("lineitem").
		WithFilter(workload.SelectivityFilter(workload.DefaultLineitemConfig(rows), 0.01)).
		WithProjection(workload.LOrderKey, workload.LExtendedPrice)
	ctx := context.Background()
	if _, err := df.Execute(ctx, q); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := df.Execute(ctx, q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWideScan is CI's encoded scan gate: the bench's scan-wide
// shape, a 50 % shipdate BETWEEN and all nine columns over a 262,144-row
// lineitem (four 65,536-row segments) through Execute at Workers 1, back
// to back on one engine. Every segment takes the late-materializing path
// (encoded eval, then gather), so an op allocates what the result keeps —
// each segment's value arrays, DICT codes and dictionaries — and the
// headers it is cut into, a slab a segment.
func BenchmarkWideScan(b *testing.B) {
	const rows = 262144
	cfg := workload.DefaultLineitemConfig(rows)
	df := NewDataFlowEngine(fabric.NewCluster(fabric.DefaultClusterConfig()))
	df.Workers = 1
	if err := df.CreateTable("lineitem", workload.LineitemSchema()); err != nil {
		b.Fatal(err)
	}
	if err := df.Load("lineitem", workload.GenLineitem(cfg)); err != nil {
		b.Fatal(err)
	}
	q := plan.NewQuery("lineitem").WithFilter(workload.SelectivityFilter(cfg, 0.5))
	ctx := context.Background()
	if _, err := df.Execute(ctx, q); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := df.Execute(ctx, q); err != nil {
			b.Fatal(err)
		}
	}
}
