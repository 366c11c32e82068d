package experiments

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/plan"
	"repro/internal/workload"
)

// TestE23DecodeCostElimination runs the sweep and checks the acceptance
// bar: at selectivity <= 10% on dictionary and bit-packed columns the
// storage processor is at least 2x less busy, with rows and byte totals
// identical at every point (byte parity is enforced inside the sweep).
func TestE23DecodeCostElimination(t *testing.T) {
	res, err := E23EncodedEval(40_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(E23Encodings)*len(E23Selectivities) {
		t.Fatalf("got %d points", len(res.Rows))
	}
	for _, pt := range res.Rows {
		if pt.EncodedSegs == 0 {
			t.Errorf("%s sel=%g: encoded arm never used encoded eval", pt.Encoding, pt.Selectivity)
		}
		if pt.Selectivity <= 0.1 && (pt.Encoding == "dict" || pt.Encoding == "bitpacked") {
			if pt.ProcSpeedup < 2 {
				t.Errorf("%s sel=%g: proc speedup %.2f < 2x (eager %v, encoded %v)",
					pt.Encoding, pt.Selectivity, pt.ProcSpeedup, pt.EagerProcBusy, pt.EncodedProcBusy)
			}
			if pt.SavedBytes == 0 {
				t.Errorf("%s sel=%g: no decode bytes saved", pt.Encoding, pt.Selectivity)
			}
			// End-to-end time only improves when the storage processor is
			// the bottleneck resource; it must never get worse.
			if pt.EncodedSim > pt.EagerSim {
				t.Errorf("%s sel=%g: end-to-end %v worse than eager %v",
					pt.Encoding, pt.Selectivity, pt.EncodedSim, pt.EagerSim)
			}
		}
	}
}

// TestEncodedEvalMatchesEagerOnWorkloads reruns E2/E22-shaped lineitem
// queries with the encoded-eval variant forced and checks the results
// are byte-identical to the eager plan, cell by cell.
func TestEncodedEvalMatchesEagerOnWorkloads(t *testing.T) {
	cfg := workload.DefaultLineitemConfig(20_000)
	data := workload.GenLineitem(cfg)
	queries := []*plan.Query{
		plan.NewQuery("lineitem").
			WithFilter(workload.SelectivityFilter(cfg, 0.02)).
			WithProjection(workload.LOrderKey, workload.LExtendedPrice),
		plan.NewQuery("lineitem").
			WithFilter(workload.SelectivityFilter(cfg, 0.15)).
			WithProjection(workload.LOrderKey, workload.LExtendedPrice),
	}
	for qi, q := range queries {
		run := func(eager bool) *core.Result {
			df := core.NewDataFlowEngine(fabric.NewCluster(fabric.DefaultClusterConfig()))
			df.EagerDecode = eager
			df.Storage.SegmentRows = e22SegmentRows
			if err := df.CreateTable("lineitem", workload.LineitemSchema()); err != nil {
				t.Fatal(err)
			}
			if err := df.Load("lineitem", data); err != nil {
				t.Fatal(err)
			}
			variants, err := df.Plan(q, 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range variants {
				if v.EncodedEval {
					res, err := df.ExecutePlan(context.Background(), v)
					if err != nil {
						t.Fatal(err)
					}
					return res
				}
			}
			t.Fatalf("query %d: no encoded-eval variant", qi)
			return nil
		}
		eager, encoded := run(true), run(false)
		if eager.Rows() != encoded.Rows() {
			t.Fatalf("query %d: rows %d vs %d", qi, eager.Rows(), encoded.Rows())
		}
		if eager.Stats.Scan.ShippedBytes != encoded.Stats.Scan.ShippedBytes {
			t.Fatalf("query %d: shipped bytes %v vs %v", qi,
				eager.Stats.Scan.ShippedBytes, encoded.Stats.Scan.ShippedBytes)
		}
		// Cell-by-cell equality across batch boundaries.
		type cursor struct {
			bi, ri int
		}
		var a, b cursor
		next := func(r *core.Result, c *cursor) (row int, ok bool) {
			for c.bi < len(r.Batches) && c.ri >= r.Batches[c.bi].NumRows() {
				c.bi, c.ri = c.bi+1, 0
			}
			if c.bi == len(r.Batches) {
				return 0, false
			}
			return c.ri, true
		}
		for {
			ra, oka := next(eager, &a)
			rb, okb := next(encoded, &b)
			if oka != okb {
				t.Fatalf("query %d: row streams end at different points", qi)
			}
			if !oka {
				break
			}
			ba, bb := eager.Batches[a.bi], encoded.Batches[b.bi]
			for c := 0; c < ba.NumCols(); c++ {
				if !ba.Col(c).Value(ra).Equal(bb.Col(c).Value(rb)) {
					t.Fatalf("query %d: cell mismatch col %d: %v vs %v",
						qi, c, ba.Col(c).Value(ra), bb.Col(c).Value(rb))
				}
			}
			a.ri++
			b.ri++
		}
	}
}
