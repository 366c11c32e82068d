package experiments

import (
	"fmt"
	"testing"
)

func TestE20StageOverlap(t *testing.T) {
	r, err := E20StageOverlap(50000)
	if err != nil {
		t.Fatal(err)
	}
	dfCF, voCF := r.Rows[0].Concurrency, r.Rows[1].Concurrency
	if dfCF <= 1.5 {
		t.Errorf("dataflow concurrency = %.3f, want > 1.5 (staged overlap)", dfCF)
	}
	if voCF > 1.1 {
		t.Errorf("volcano concurrency = %.3f, want <= 1.1 (serial pull)", voCF)
	}
	if dfCF <= 1.3*voCF {
		t.Errorf("dataflow concurrency %.3f not clearly above volcano %.3f",
			dfCF, voCF)
	}
	if got := r.Table.Metrics["dataflow_concurrency"]; got != dfCF {
		t.Errorf("metric dataflow_concurrency = %v, want %v", got, dfCF)
	}
	if len(r.Table.Rows) != 2 {
		t.Fatalf("table has %d rows, want 2", len(r.Table.Rows))
	}
}

// TestE20Deterministic renders both traces twice from independent runs;
// CI diffs trace files the same way.
func TestE20Deterministic(t *testing.T) {
	render := func() (string, string) {
		r, err := E20StageOverlap(20000)
		if err != nil {
			t.Fatal(err)
		}
		df, vo := r.Rows[0].Trace, r.Rows[1].Trace
		return fmt.Sprint(df.Spans(), df.Events(), df.SeriesList()),
			fmt.Sprint(vo.Spans(), vo.Events(), vo.SeriesList())
	}
	df1, vo1 := render()
	df2, vo2 := render()
	if df1 != df2 {
		t.Error("E20 dataflow trace not deterministic")
	}
	if vo1 != vo2 {
		t.Error("E20 volcano trace not deterministic")
	}
}
