package experiments

import (
	"context"
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/sim"
	"repro/internal/workload"
)

// E20Row is one engine's traced run: dataflow, then volcano.
type E20Row struct {
	Engine      string    `col:"engine"`
	Variant     string    `col:"variant,-"`
	Makespan    sim.VTime `col:"makespan"`
	Busy        sim.VTime `col:"resource busy"`
	Concurrency float64   `col:"concurrency"` // mean simultaneously active resources
	Tracks      int       `col:"tracks"`
	Trace       *obs.Trace
}

// E20StageOverlap reproduces the Section 4 staged-pipeline claim with
// the tracing layer as its instrument: the same filtered group-by runs
// on both engines with virtual-time tracing enabled, and the traces are
// compared on their concurrency factor — total resource busy time over
// makespan, i.e. the mean number of devices and links active at once.
// The data-flow engine overlaps media read-ahead, link DMA, storage
// decode and downstream stages, so it scores well above 1; the
// pull-based baseline touches one resource at a time and cannot exceed
// 1. The traces are deterministic, so CI diffs them byte-for-byte.
func E20StageOverlap(rows int) (*Result[E20Row], error) {
	cfg := workload.DefaultLineitemConfig(rows)
	data := workload.GenLineitem(cfg)
	q := plan.NewQuery("lineitem").
		WithFilter(workload.SelectivityFilter(cfg, 0.5)).
		WithGroupBy(workload.PricingSummary())

	df := core.NewDataFlowEngine(fabric.NewCluster(fabric.DefaultClusterConfig()))
	df.Tracing = true
	df.Storage.SegmentRows = e22SegmentRows
	if err := loadDataFlow(df, "lineitem", data); err != nil {
		return nil, err
	}
	dfRes, err := df.Execute(context.Background(), q)
	if err != nil {
		return nil, err
	}

	vo := core.NewVolcanoEngine(fabric.NewCluster(fabric.LegacyClusterConfig()), 256*sim.MB)
	vo.Tracing = true
	if err := loadVolcano(vo, "lineitem", data); err != nil {
		return nil, err
	}
	voRes, err := vo.Execute(context.Background(), q)
	if err != nil {
		return nil, err
	}
	if dfRes.Rows() != voRes.Rows() {
		return nil, fmt.Errorf("experiments: E20 engines disagree (%d vs %d rows)", dfRes.Rows(), voRes.Rows())
	}

	res := newResult[E20Row]("E20",
		"Staged pipeline overlap (Section 4): mean active resources, from virtual-time traces",
		"concurrency = total span time / makespan over the traced timeline; "+
			"a pull engine uses one resource at a time (<= 1), the staged pipeline keeps "+
			"media, links and processors busy concurrently")
	for _, r := range []E20Row{
		{Engine: "dataflow", Variant: dfRes.Stats.Variant, Trace: dfRes.Trace},
		{Engine: "volcano", Trace: voRes.Trace},
	} {
		tr := r.Trace
		r.Makespan, r.Busy, r.Concurrency, r.Tracks = tr.Makespan(), tr.WorkBusy(), tr.ConcurrencyFactor(), len(tr.Tracks())
		res.put(r)
		res.Table.SetMetric(r.Engine+"_concurrency", r.Concurrency)
		res.Table.SetMetric(r.Engine+"_makespan_vns", float64(r.Makespan))
	}
	return res, nil
}

// WriteOverlapTrace runs E20 and writes both engines' virtual-time
// timelines to w as one Chrome/Perfetto trace, one process per engine
// (dfbench -trace).
func WriteOverlapTrace(w io.Writer, rows int) error {
	r, err := E20StageOverlap(rows)
	if err != nil {
		return err
	}
	return obs.WritePerfetto(w,
		obs.Process{Name: "dataflow", Trace: r.Rows[0].Trace},
		obs.Process{Name: "volcano", Trace: r.Rows[1].Trace})
}
