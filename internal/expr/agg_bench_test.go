package expr_test

import (
	"testing"

	"repro/internal/columnar"
	"repro/internal/encoding"
	"repro/internal/expr"
	"repro/internal/workload"
)

// BenchmarkAddRaw folds a 65,536-row lineitem batch under a 90 % shipdate
// selection, what agg-lowcard's pre-aggregation is handed — every column
// decoded from its segment encoding, so l_returnflag is dictionary-coded —
// into groups that already exist: PricingSummary (three VARCHAR groups)
// and PartVolume (thousands of BIGINT groups). It reports ns/row, a
// timing tool gated on nothing: TestAddRawKnownGroupsDoesNotAllocate and
// TestAddRawCodedKnownGroupsDoesNotAllocate hold allocations at zero.
func BenchmarkAddRaw(b *testing.B) {
	const rows = 65536
	cfg := workload.DefaultLineitemConfig(rows)
	gen := workload.GenLineitem(cfg)
	cols := make([]*columnar.Vector, gen.NumCols())
	for i := range cols {
		v, err := encoding.EncodeColumn(gen.Col(i)).Decode()
		if err != nil {
			b.Fatal(err)
		}
		cols[i] = v
	}
	data := columnar.BatchOf(gen.Schema(), cols...)
	in := data.WithSelection(workload.SelectivityFilter(cfg, 0.9).Eval(data))
	for _, c := range []struct {
		name string
		spec expr.GroupBy
	}{
		{"PricingSummary", workload.PricingSummary()},
		{"PartVolume", workload.PartVolume()},
	} {
		b.Run(c.name, func(b *testing.B) {
			agg := expr.NewPartialAggregator(c.spec, data.Schema(), 0)
			agg.AddRaw(in) // warm-up: every group exists before the timer starts
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				agg.AddRaw(in)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(in.LiveRows()), "ns/row")
		})
	}
}
