package core

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/columnar"
	"repro/internal/plan"
	"repro/internal/workload"
)

// referenceComputeStats is ComputeStats as it was before it counted
// distinct integers in a bitset: a map per column and an IsNull check on
// every row. ComputeStats must return exactly what it does.
func referenceComputeStats(b *columnar.Batch) plan.TableStats {
	st := plan.StatsFromSchema(b.Schema())
	st.Rows = int64(b.NumRows())
	for c := 0; c < b.NumCols(); c++ {
		col := b.Col(c)
		switch col.Type() {
		case columnar.Int64:
			vals := col.Int64s()
			distinct := make(map[int64]struct{})
			first := true
			for i, v := range vals {
				if col.IsNull(i) {
					continue
				}
				distinct[v] = struct{}{}
				if first {
					st.MinInt[c], st.MaxInt[c] = v, v
					first = false
					continue
				}
				if v < st.MinInt[c] {
					st.MinInt[c] = v
				}
				if v > st.MaxInt[c] {
					st.MaxInt[c] = v
				}
			}
			st.Distinct[c] = int64(len(distinct))
			st.IntBounds[c] = !first
		case columnar.String:
			distinct := make(map[string]struct{})
			var bytes int64
			for i, v := range col.Strings() {
				if col.IsNull(i) {
					continue
				}
				distinct[v] = struct{}{}
				bytes += int64(len(v)) + 16
			}
			st.Distinct[c] = int64(len(distinct))
			if n := int64(col.Len()); n > 0 {
				st.ColBytes[c] = bytes / n
				if st.ColBytes[c] == 0 {
					st.ColBytes[c] = 1
				}
			}
		case columnar.Float64:
		case columnar.Bool:
			st.Distinct[c] = 2
		}
	}
	return st
}

// mixedBatch is n rows of a BIGINT, VARCHAR, DOUBLE and BOOLEAN column,
// every row's values from value(i), NULL where null(i).
func mixedBatch(n int, value func(i int) int64, null func(i int) bool) *columnar.Batch {
	b := columnar.NewBatch(columnar.NewSchema(
		columnar.Field{Name: "i", Type: columnar.Int64},
		columnar.Field{Name: "s", Type: columnar.String},
		columnar.Field{Name: "f", Type: columnar.Float64},
		columnar.Field{Name: "b", Type: columnar.Bool},
	), n)
	for i := 0; i < n; i++ {
		if null(i) {
			b.AppendRow(columnar.NullValue(columnar.Int64), columnar.NullValue(columnar.String),
				columnar.NullValue(columnar.Float64), columnar.NullValue(columnar.Bool))
			continue
		}
		v := value(i)
		b.AppendRow(columnar.IntValue(v), columnar.StringValue(fmt.Sprint("s", v%97)),
			columnar.FloatValue(float64(v)), columnar.BoolValue(v&1 == 0))
	}
	return b
}

func TestComputeStatsMatchesReference(t *testing.T) {
	batches := map[string]*columnar.Batch{}
	for _, rows := range []int{0, 1, 4096, 65536, 524288} {
		batches[fmt.Sprintf("lineitem/%d", rows)] = workload.GenLineitem(workload.DefaultLineitemConfig(rows))
	}
	never := func(int) bool { return false }
	spread := func(i int) int64 { return int64(i)*7919 - 300000 }
	// Both ends of int64: a span the bitset cannot hold, so the map path.
	batches["MinInt64..MaxInt64"] = mixedBatch(1000, func(i int) int64 {
		switch i {
		case 17:
			return math.MinInt64
		case 900:
			return math.MaxInt64
		}
		return spread(i)
	}, never)
	batches["all NULL"] = mixedBatch(1000, spread, func(int) bool { return true })
	batches["10% NULL"] = mixedBatch(10000, func(i int) int64 { return int64(i % 3001) }, func(i int) bool { return i%10 == 3 })
	batches["10% NULL, wide span"] = mixedBatch(10000, spread, func(i int) bool { return i%10 == 3 })
	for name, b := range batches {
		if got, want := ComputeStats(b), referenceComputeStats(b); !reflect.DeepEqual(got, want) {
			t.Errorf("%s:\n got %+v\nwant %+v", name, got, want)
		}
	}
}

var statsSink plan.TableStats

// BenchmarkComputeStats is CI's ingest gate for statistics: the
// 65,536-row lineitem batch the ingest workload loads. Distinct integers
// are counted in one bitset a column, so allocs/op stays ≤ 32 (a map per
// BIGINT column grew to 262).
func BenchmarkComputeStats(b *testing.B) {
	batch := workload.GenLineitem(workload.DefaultLineitemConfig(65536))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		statsSink = ComputeStats(batch)
	}
}
