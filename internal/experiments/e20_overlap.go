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

// e20SegmentRows keeps segments small enough that a query streams many
// batches through the pipeline; staged overlap needs a stream, not one
// monolithic read.
const e20SegmentRows = 8192

// E20Result carries the staged-overlap traces for assertions.
type E20Result struct {
	*Table

	DataFlowTrace *obs.Trace
	VolcanoTrace  *obs.Trace

	DataFlowVariant string
	DataFlowCF      float64 // mean simultaneously active resources
	VolcanoCF       float64
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
func E20StageOverlap(rows int) (*E20Result, error) {
	cfg := workload.DefaultLineitemConfig(rows)
	data := workload.GenLineitem(cfg)
	q := plan.NewQuery("lineitem").
		WithFilter(workload.SelectivityFilter(cfg, 0.5)).
		WithGroupBy(workload.PricingSummary())

	df := core.NewDataFlowEngine(fabric.NewCluster(fabric.DefaultClusterConfig()))
	df.Tracing = true
	df.Storage.SegmentRows = e20SegmentRows
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

	res := &E20Result{
		Table: &Table{
			ID:    "E20",
			Title: "Staged pipeline overlap (Section 4): mean active resources, from virtual-time traces",
			Header: []string{"engine", "variant", "makespan", "resource busy",
				"concurrency", "tracks"},
			Notes: "concurrency = total span time / makespan over the traced timeline; " +
				"a pull engine uses one resource at a time (<= 1), the staged pipeline keeps " +
				"media, links and processors busy concurrently",
		},
		DataFlowTrace:   dfRes.Trace,
		VolcanoTrace:    voRes.Trace,
		DataFlowVariant: dfRes.Stats.Variant,
		DataFlowCF:      dfRes.Trace.ConcurrencyFactor(),
		VolcanoCF:       voRes.Trace.ConcurrencyFactor(),
	}
	add := func(engine, variant string, tr *obs.Trace, cf float64) {
		res.Table.AddRow(engine, variant,
			tr.Makespan().String(), tr.WorkBusy().String(),
			f(cf), d(int64(len(tr.Tracks()))))
	}
	add("dataflow", res.DataFlowVariant, dfRes.Trace, res.DataFlowCF)
	add("volcano", "-", voRes.Trace, res.VolcanoCF)
	res.Table.SetMetric("dataflow_concurrency", res.DataFlowCF)
	res.Table.SetMetric("volcano_concurrency", res.VolcanoCF)
	res.Table.SetMetric("dataflow_makespan_vns", float64(dfRes.Trace.Makespan()))
	res.Table.SetMetric("volcano_makespan_vns", float64(voRes.Trace.Makespan()))
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
		obs.Process{Name: "dataflow", Trace: r.DataFlowTrace},
		obs.Process{Name: "volcano", Trace: r.VolcanoTrace})
}
