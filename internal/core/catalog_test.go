package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/columnar"
	"repro/internal/encoding"
	"repro/internal/fabric"
	"repro/internal/plan"
	"repro/internal/storage"
	"repro/internal/workload"
)

// referenceComputeStats is the planner statistics of a batch as one walk
// over its rows computes them: a map per column and an IsNull check on
// every row. The statistics Load folds from the segment writer's
// summaries must be exactly what it returns.
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

// distinctStringBatch is n rows of a BIGINT and a VARCHAR column whose
// every value is distinct, so PLAIN beats DICT on every segment.
func distinctStringBatch(n int) *columnar.Batch {
	b := columnar.NewBatch(columnar.NewSchema(
		columnar.Field{Name: "k", Type: columnar.Int64},
		columnar.Field{Name: "s", Type: columnar.String},
	), n)
	for i := 0; i < n; i++ {
		b.AppendRow(columnar.IntValue(int64(i)), columnar.StringValue(fmt.Sprintf("v%07d", i*7919%1000003)))
	}
	return b
}

// emptyStringBatch is one VARCHAR column of n rows: NULL where null(i),
// "" where empty(i), and one of seven words otherwise. A NULL row stores
// "", which must count as a distinct value only where a non-NULL row
// holds it too.
func emptyStringBatch(n int, null, empty func(i int) bool) *columnar.Batch {
	b := columnar.NewBatch(columnar.NewSchema(columnar.Field{Name: "s", Type: columnar.String}), n)
	for i := 0; i < n; i++ {
		switch {
		case null(i):
			b.AppendRow(columnar.NullValue(columnar.String))
		case empty(i):
			b.AppendRow(columnar.StringValue(""))
		default:
			b.AppendRow(columnar.StringValue(fmt.Sprint("w", i%7)))
		}
	}
	return b
}

// loadedStats loads each batch in turn into one new table and returns the
// statistics Load stored for it.
func loadedStats(t *testing.T, bs ...*columnar.Batch) plan.TableStats {
	t.Helper()
	df := NewDataFlowEngine(fabric.NewCluster(fabric.DefaultClusterConfig()))
	if err := df.CreateTable("t", bs[0].Schema()); err != nil {
		t.Fatal(err)
	}
	for _, b := range bs {
		if err := df.Load("t", b); err != nil {
			t.Fatal(err)
		}
	}
	st, err := df.Stats("t")
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// statsBatches are the batches whose loaded statistics are checked
// against the reference: 0 to 9 segments of 65,536 rows, every NULL
// shape, "" beside NULL rows, a VARCHAR on which PLAIN wins and the
// widest BIGINT span.
func statsBatches() map[string]*columnar.Batch {
	batches := map[string]*columnar.Batch{}
	for _, rows := range []int{0, 1, 4096, 65535, 65536, 65537, 524288, 524289} {
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
	// The bounds are at the first and last segment's ends, and every
	// segment holds values the others do not.
	batches["10% NULL, wide span, 3 segments"] = mixedBatch(140000, spread, func(i int) bool { return i%10 == 3 })
	batches["first segment all NULL"] = mixedBatch(70000, spread, func(i int) bool { return i < 65536 })
	batches["last segment all NULL"] = mixedBatch(70000, spread, func(i int) bool { return i >= 65536 })
	batches[`NULL, no ""`] = emptyStringBatch(1000, func(i int) bool { return i%4 == 1 }, never)
	batches[`NULL beside ""`] = emptyStringBatch(1000, func(i int) bool { return i%4 == 1 }, func(i int) bool { return i%4 == 2 })
	batches[`NULL in one segment, "" in the next`] = emptyStringBatch(70000,
		func(i int) bool { return i < 65536 && i%4 == 1 }, func(i int) bool { return i >= 65536 && i%4 == 2 })
	batches[`only ""`] = emptyStringBatch(1000, never, func(int) bool { return true })
	batches["PLAIN wins"] = distinctStringBatch(65536)
	batches["PLAIN wins, 2 segments"] = distinctStringBatch(70000)
	return batches
}

func TestLoadStatsMatchReference(t *testing.T) {
	for name, b := range statsBatches() {
		if got, want := loadedStats(t, b), referenceComputeStats(b); !reflect.DeepEqual(got, want) {
			t.Errorf("%s:\n got %+v\nwant %+v", name, got, want)
		}
	}
}

// Successive Loads into one table fold as MergeStats folds each batch's
// reference statistics.
func TestSuccessiveLoadsFoldLikeMergeStats(t *testing.T) {
	var bs []*columnar.Batch
	for i, rows := range []int{4096, 70000, 1, 0, 65536} {
		cfg := workload.DefaultLineitemConfig(rows)
		cfg.Seed = uint64(i + 1)
		bs = append(bs, workload.GenLineitem(cfg))
	}
	for k := 1; k <= len(bs); k++ {
		want := referenceComputeStats(bs[0])
		for _, b := range bs[1:k] {
			want = MergeStats(want, referenceComputeStats(b))
		}
		if got := loadedStats(t, bs[:k]...); !reflect.DeepEqual(got, want) {
			t.Errorf("%d loads:\n got %+v\nwant %+v", k, got, want)
		}
	}
}

// The write summaries are taken beside the bytes, not from them: the
// segments written are byte for byte what they were before the encoder
// returned a summary and packed DICT codes from int32s. The hashes are of
// BuildSegment(0, b).Marshal() as written before either change.
func TestSegmentBytesUnchanged(t *testing.T) {
	for _, tc := range []struct {
		name string
		b    *columnar.Batch
		sha  string
	}{
		{"lineitem/65536", workload.GenLineitem(workload.DefaultLineitemConfig(65536)),
			"aa5b0192e237492ab7f15022ae7d5de05efd63ad925b310b9322a27fc940a25b"},
		{"10% NULL", mixedBatch(10000, func(i int) int64 { return int64(i % 3001) }, func(i int) bool { return i%10 == 3 }),
			"ce9760c05af27beae8f234469a91185cd51e5795dd19416d43781e2ea65c608a"},
		{"PLAIN wins", distinctStringBatch(65536),
			"04880cb996c88f2746ada1b2ba50d14410b40420a064e12f7e2e1336cc93b9bd"},
	} {
		seg := storage.BuildSegment(0, tc.b)
		sum := sha256.Sum256(seg.Marshal())
		if got := hex.EncodeToString(sum[:]); got != tc.sha {
			t.Errorf("%s: segment SHA-256 %s, want %s", tc.name, got, tc.sha)
		}
	}
	if seg := storage.BuildSegment(0, distinctStringBatch(65536)); seg.Columns[1].Encoding != encoding.Plain {
		t.Errorf("PLAIN wins: VARCHAR written as %v", seg.Columns[1].Encoding)
	}
}

var statsSink plan.TableStats

// BenchmarkStatsFromWrite is CI's ingest gate for statistics: the fold of
// the write summaries of the 65,536-row lineitem batch the ingest
// workload loads. Distinct integers are counted in one bitset a column
// and a single segment's distinct strings are counted as they stand, so
// allocs/op stays ≤ 32.
func BenchmarkStatsFromWrite(b *testing.B) {
	batch := workload.GenLineitem(workload.DefaultLineitemConfig(65536))
	_, sums := storage.WriteSegment(0, batch)
	segs := [][]encoding.WriteSummary{sums}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		statsSink = statsFromWrite(batch, segs)
	}
}
