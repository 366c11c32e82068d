package experiments

import (
	"context"
	"fmt"

	"repro/internal/columnar"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/plan"
	"repro/internal/sim"
	"repro/internal/workload"
)

// e22SegmentRows keeps segments small so a scan has many morsels to
// spread over a worker pool; one morsel is one segment.
const e22SegmentRows = 8192

// DefaultWorkers is the worker sweep both engines run.
var DefaultWorkers = []int{1, 2, 4, 8}

// E22Result carries the scaling curves for assertions.
type E22Result struct {
	*Table

	Workers []int
	// SimTime per worker count, index-aligned with Workers.
	DataFlowSim []sim.VTime
	VolcanoSim  []sim.VTime
	// Speedup vs the same engine at one worker.
	DataFlowSpeedup []float64
	VolcanoSpeedup  []float64
	// Rows every run returned (they must all agree).
	Rows int64
}

// E22Parallelism measures morsel-driven intra-query parallelism on a
// scan-heavy workload: the same filtered projection runs on both engines
// at 1, 2, 4 and 8 workers, and the curves show where each engine's
// speedup saturates. The dataflow engine splits the storage scan into
// per-segment morsels across the smart SSD's compute units, so it scales
// near-linearly until the serial media path (the NVMe link) becomes the
// floor; the pull baseline can only parallelize its fetch/decode front —
// every operator above the scan stays serial — so it flattens much
// earlier, where the network link and the serial operator chain
// saturate. Results and metered byte totals are identical at every
// worker count; only the busy-time split (and therefore SimTime) moves.
// The sweep argument overrides the worker counts to run; nil means
// DefaultWorkers.
func E22Parallelism(rows int, sweep []int) (*E22Result, error) {
	if len(sweep) == 0 {
		sweep = DefaultWorkers
	}
	cfg := workload.DefaultLineitemConfig(rows)
	data := workload.GenLineitem(cfg)
	q := plan.NewQuery("lineitem").
		WithFilter(workload.SelectivityFilter(cfg, 0.15)).
		WithProjection(workload.LOrderKey, workload.LExtendedPrice)

	res := &E22Result{
		Table: &Table{
			ID:    "E22",
			Title: "Morsel-driven intra-query parallelism: speedup vs workers, dataflow vs volcano",
			Header: []string{"engine", "workers", "simtime", "speedup",
				"moved bytes", "rows"},
			Notes: "one morsel = one storage segment; dataflow scales until the serial NVMe " +
				"media path floors it, volcano only parallelizes fetch/decode and flattens " +
				"at the network link + serial operator chain; bytes and rows are identical " +
				"at every worker count",
		},
		Workers: append([]int(nil), sweep...),
	}

	var movedDF, movedVO sim.Bytes
	for i, w := range sweep {
		dfSim, dfMoved, dfRows, err := e22DataFlow(q, data, w)
		if err != nil {
			return nil, err
		}
		voSim, voMoved, voRows, err := e22Volcano(q, data, w)
		if err != nil {
			return nil, err
		}
		if dfRows != voRows {
			return nil, fmt.Errorf("experiments: E22 engines disagree at %d workers (%d vs %d rows)", w, dfRows, voRows)
		}
		if i == 0 {
			res.Rows, movedDF, movedVO = dfRows, dfMoved, voMoved
		}
		if dfRows != res.Rows || dfMoved != movedDF || voMoved != movedVO {
			return nil, fmt.Errorf("experiments: E22 run at %d workers is not deterministic (rows %d, moved %v/%v)",
				w, dfRows, dfMoved, voMoved)
		}
		res.DataFlowSim = append(res.DataFlowSim, dfSim)
		res.VolcanoSim = append(res.VolcanoSim, voSim)
		res.DataFlowSpeedup = append(res.DataFlowSpeedup, float64(res.DataFlowSim[0])/float64(dfSim))
		res.VolcanoSpeedup = append(res.VolcanoSpeedup, float64(res.VolcanoSim[0])/float64(voSim))
		res.Table.AddRow("dataflow", d(int64(w)), dfSim.String(),
			f(res.DataFlowSpeedup[i]), d(int64(dfMoved)), d(dfRows))
		res.Table.AddRow("volcano", d(int64(w)), voSim.String(),
			f(res.VolcanoSpeedup[i]), d(int64(voMoved)), d(voRows))
	}

	for i, w := range res.Workers {
		res.Table.SetMetric(fmt.Sprintf("dataflow_speedup_w%d", w), res.DataFlowSpeedup[i])
		res.Table.SetMetric(fmt.Sprintf("volcano_speedup_w%d", w), res.VolcanoSpeedup[i])
		res.Table.SetMetric(fmt.Sprintf("dataflow_vs_volcano_w%d", w),
			float64(res.VolcanoSim[i])/float64(res.DataFlowSim[i]))
	}
	return res, nil
}

// e22DataFlow runs the query on a fresh dataflow engine at the given
// worker count, forcing the filter-pushdown variant so every worker
// sweep exercises the same plan shape.
func e22DataFlow(q *plan.Query, data *columnar.Batch, workers int) (sim.VTime, sim.Bytes, int64, error) {
	df := core.NewDataFlowEngine(fabric.NewCluster(fabric.DefaultClusterConfig()))
	df.Workers = workers
	df.Storage.SegmentRows = e22SegmentRows
	if err := loadDataFlow(df, "lineitem", data); err != nil {
		return 0, 0, 0, err
	}
	res, err := runVariant(df, q, "filter-pushdown", func(v *plan.Physical) bool {
		return v.HasPlacement(fabric.OpFilter, plan.SiteStorage)
	})
	if err != nil {
		return 0, 0, 0, err
	}
	return res.Stats.SimTime, res.Stats.MovedBytes, res.Rows(), nil
}

// e22Volcano runs the query on a fresh pull baseline at the given
// worker count.
func e22Volcano(q *plan.Query, data *columnar.Batch, workers int) (sim.VTime, sim.Bytes, int64, error) {
	vo := core.NewVolcanoEngine(fabric.NewCluster(fabric.LegacyClusterConfig()), 256*sim.MB)
	vo.Workers = workers
	vo.Storage.SegmentRows = e22SegmentRows
	if err := loadVolcano(vo, "lineitem", data); err != nil {
		return 0, 0, 0, err
	}
	res, err := vo.Execute(context.Background(), q)
	if err != nil {
		return 0, 0, 0, err
	}
	return res.Stats.SimTime, res.Stats.MovedBytes, res.Rows(), nil
}
