package experiments

import "testing"

// TestE22Parallelism checks the acceptance criteria for morsel-driven
// intra-query parallelism: at four workers the dataflow engine is at
// least 2x its single-worker time on the scan-heavy workload, scaling
// is near-linear until the serial media path saturates (so eight
// workers add little over four), and dataflow beats the pull baseline
// at every worker count. E22Parallelism itself verifies that rows and
// metered byte totals are identical at every worker count.
func TestE22Parallelism(t *testing.T) {
	res, err := E22Parallelism(160_000, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Table.Rows {
		t.Log(row)
	}
	// The rows alternate dataflow, volcano at each worker count.
	var workers []int
	var dfRows, voRows []E22Row
	for i := 0; i+1 < len(res.Rows); i += 2 {
		workers = append(workers, res.Rows[i].Workers)
		dfRows, voRows = append(dfRows, res.Rows[i]), append(voRows, res.Rows[i+1])
	}

	idx := func(w int) int {
		for i, ww := range workers {
			if ww == w {
				return i
			}
		}
		t.Fatalf("worker count %d not in sweep %v", w, workers)
		return -1
	}

	// >=2x at four workers.
	if s := dfRows[idx(4)].Speedup; s < 2.0 {
		t.Errorf("dataflow speedup at 4 workers = %.2f, want >= 2.0", s)
	}
	// Near-linear at two workers: at least 1.6x.
	if s := dfRows[idx(2)].Speedup; s < 1.6 {
		t.Errorf("dataflow speedup at 2 workers = %.2f, want >= 1.6 (near-linear)", s)
	}
	// Saturation: once the serial media link floors the scan, doubling
	// workers again buys almost nothing.
	gain := dfRows[idx(8)].Speedup / dfRows[idx(4)].Speedup
	if gain > 1.25 {
		t.Errorf("dataflow 4->8 workers still gained %.2fx, want saturation (<= 1.25x)", gain)
	}
	// Dataflow beats the pull baseline at every worker count.
	for i, w := range workers {
		if dfRows[i].SimTime >= voRows[i].SimTime {
			t.Errorf("at %d workers dataflow (%v) is not faster than volcano (%v)",
				w, dfRows[i].SimTime, voRows[i].SimTime)
		}
	}
	// Speedups never regress below 1 (more workers never slower).
	for i, w := range workers {
		if dfRows[i].Speedup < 0.99 {
			t.Errorf("dataflow at %d workers slower than serial (speedup %.2f)", w, dfRows[i].Speedup)
		}
		if voRows[i].Speedup < 0.99 {
			t.Errorf("volcano at %d workers slower than serial (speedup %.2f)", w, voRows[i].Speedup)
		}
	}
	if dfRows[0].Rows <= 0 {
		t.Fatalf("E22 returned no rows")
	}
}
