package plan

import (
	"testing"

	"repro/internal/fabric"
	"repro/internal/workload"
)

// lineitemStats are the statistics a 65,536-row lineitem table loads
// with: shipdate spans [0, ShipDays), and the return flag has three
// values.
func lineitemStats() (TableStats, workload.LineitemConfig) {
	cfg := workload.DefaultLineitemConfig(65536)
	st := StatsFromSchema(workload.LineitemSchema())
	st.Rows = int64(cfg.Rows)
	st.MinInt[workload.LShipDate], st.MaxInt[workload.LShipDate] = 0, cfg.ShipDays-1
	st.IntBounds[workload.LShipDate] = true
	st.Distinct[workload.LReturnFlag] = 3
	return st, cfg
}

// enumerateShapes are the three query shapes BenchmarkEnumerate plans.
func enumerateShapes(cfg workload.LineitemConfig) []struct {
	name string
	q    *Query
} {
	return []struct {
		name string
		q    *Query
	}{
		{"scan-selective", NewQuery("lineitem").WithFilter(workload.SelectivityFilter(cfg, 0.01)).
			WithProjection(workload.LOrderKey, workload.LExtendedPrice)},
		{"pricing-summary", NewQuery("lineitem").WithFilter(workload.SelectivityFilter(cfg, 0.9)).
			WithGroupBy(workload.PricingSummary())},
		{"count", NewQuery("lineitem").WithCount()},
	}
}

// BenchmarkEnumerate times one query's planning on the default cluster,
// the work every Execute and every recovery re-plan pays before a byte
// moves.
func BenchmarkEnumerate(b *testing.B) {
	st, cfg := lineitemStats()
	pm, err := FromCluster(fabric.NewCluster(fabric.DefaultClusterConfig()), 0)
	if err != nil {
		b.Fatal(err)
	}
	for _, s := range enumerateShapes(cfg) {
		b.Run(s.name, func(b *testing.B) {
			o := &Optimizer{Path: pm}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := o.Enumerate(s.q, st); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
