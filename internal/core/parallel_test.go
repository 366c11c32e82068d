package core

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/columnar"
	"repro/internal/plan"
	"repro/internal/resilience"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Worker-pool execution must be invisible in everything except the
// makespan: identical result rows and identical metered byte totals at
// every worker count, on both engines and across query shapes.
func TestWorkersPreserveResultsAndTotals(t *testing.T) {
	queries := func(cfg workload.LineitemConfig) map[string]*plan.Query {
		return map[string]*plan.Query{
			"filter-projection": plan.NewQuery("lineitem").
				WithFilter(workload.SelectivityFilter(cfg, 0.1)).
				WithProjection(workload.LOrderKey, workload.LExtendedPrice),
			"group-by": plan.NewQuery("lineitem").WithGroupBy(workload.PricingSummary()),
			"filtered-group-by": plan.NewQuery("lineitem").
				WithFilter(workload.SelectivityFilter(cfg, 0.3)).
				WithGroupBy(workload.PricingSummary()),
			"count": plan.NewQuery("lineitem").
				WithFilter(workload.SelectivityFilter(cfg, 0.2)).
				WithCount(),
		}
	}
	_, _, cfg := newEngines(t)
	for name, q := range queries(cfg) {
		t.Run(name, func(t *testing.T) {
			// Fresh engines for the baseline too: a warm buffer pool from an
			// earlier query would shrink the serial run's fetch traffic and
			// make the byte comparison meaningless.
			df1, vo1, _ := newEngines(t)
			df1.Workers, vo1.Workers = 1, 1
			dfBase, err := df1.Execute(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			voBase, err := vo1.Execute(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			// Workers 0 must take the same inline path as the baseline's 1.
			for _, w := range []int{0, 2, 4} {
				dfW, voW, _ := newEngines(t)
				dfW.Workers, voW.Workers = w, w
				dfRes, err := dfW.Execute(context.Background(), q)
				if err != nil {
					t.Fatal(err)
				}
				assertSameResults(t, dfBase, dfRes)
				// Parallel partial aggregation legitimately ships one extra
				// partial-state flush per additional replica; everything else
				// must move exactly the serial byte count.
				extra := dfRes.Stats.MovedBytes - dfBase.Stats.MovedBytes
				if q.GroupBy != nil {
					if extra < 0 || extra > sim.Bytes(max(w-1, 0))*4096 {
						t.Errorf("w=%d: dataflow moved %v bytes, serial moved %v (partial overhead out of bounds)",
							w, dfRes.Stats.MovedBytes, dfBase.Stats.MovedBytes)
					}
				} else if extra != 0 {
					t.Errorf("w=%d: dataflow moved %v bytes, serial moved %v",
						w, dfRes.Stats.MovedBytes, dfBase.Stats.MovedBytes)
				}
				if dfRes.Stats.SimTime > dfBase.Stats.SimTime {
					t.Errorf("w=%d: dataflow got slower: %v > %v", w, dfRes.Stats.SimTime, dfBase.Stats.SimTime)
				}
				voRes, err := voW.Execute(context.Background(), q)
				if err != nil {
					t.Fatal(err)
				}
				assertSameResults(t, voBase, voRes)
				if voRes.Stats.MovedBytes != voBase.Stats.MovedBytes {
					t.Errorf("w=%d: volcano moved %v bytes, serial moved %v",
						w, voRes.Stats.MovedBytes, voBase.Stats.MovedBytes)
				}
				if voRes.Stats.SimTime > voBase.Stats.SimTime {
					t.Errorf("w=%d: volcano got slower: %v > %v", w, voRes.Stats.SimTime, voBase.Stats.SimTime)
				}
			}
		})
	}
}

// The distributed join with partitioned parallel build must produce the
// serial join's rows, with identical shipped-byte totals.
func TestJoinWorkersPreserveResults(t *testing.T) {
	build := func(workers int) (*Result, error) {
		df, _, _ := newEngines(t)
		df.Workers = workers
		if err := df.CreateTable("orders", workload.OrdersSchema()); err != nil {
			return nil, err
		}
		if err := df.Load("orders", workload.GenOrders(testRows/10, 7)); err != nil {
			return nil, err
		}
		return df.ExecuteJoin(context.Background(), JoinQuery{
			Probe: "lineitem", Build: "orders",
			ProbeKey: workload.LOrderKey, BuildKey: workload.OOrderKey,
		})
	}
	base, err := build(1)
	if err != nil {
		t.Fatal(err)
	}
	if base.Rows() == 0 {
		t.Fatal("empty join result")
	}
	for _, w := range []int{2, 4} {
		res, err := build(w)
		if err != nil {
			t.Fatal(err)
		}
		if res.Rows() != base.Rows() {
			t.Errorf("w=%d: join rows %d, serial %d", w, res.Rows(), base.Rows())
		}
		if res.Stats.MovedBytes != base.Stats.MovedBytes {
			t.Errorf("w=%d: join moved %v, serial %v", w, res.Stats.MovedBytes, base.Stats.MovedBytes)
		}
	}
}

// The scan-wide shape — a 50 % shipdate BETWEEN and every column — takes
// the encoded scan: each segment's selection is its view's, lent for one
// attempt, and its result is cut into granules from one slab. At Workers
// 1, 2 and 3, with speculation on (a late copy of a morsel opens a view,
// and a selection, of its own), the rows come back identical, in order.
func TestWideScanRowsAtEveryWidthWithSpeculation(t *testing.T) {
	const segRows = 16384 // two granules of result a segment
	cfg := workload.DefaultLineitemConfig(8 * segRows)
	data := workload.GenLineitem(cfg)
	q := plan.NewQuery("lineitem").WithFilter(workload.SelectivityFilter(cfg, 0.5))
	var want [][]columnar.Value
	for _, w := range []int{1, 2, 3} {
		df, _ := newEnginesSized(t, data, segRows)
		df.Workers = w
		df.EnableResilience(resilience.NewPolicy())
		res, err := df.Execute(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.Scan.EncodedEvalSegments == 0 {
			t.Fatalf("w=%d: no segment took the encoded scan", w)
		}
		var rows [][]columnar.Value
		for _, b := range res.Batches {
			rows = append(rows, b.RowMajor()...)
		}
		if w == 1 {
			want = rows
		} else if !reflect.DeepEqual(rows, want) {
			t.Fatalf("w=%d: %d rows differ from the %d at Workers 1", w, len(rows), len(want))
		}
	}
	if len(want) < segRows {
		t.Fatalf("%d rows, want at least %d", len(want), segRows)
	}
}
