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
// spread over a worker pool (one morsel is one segment) and a query
// streams many batches through the pipeline. E20's staged overlap and
// E23's encoded evaluation load at this size too.
const e22SegmentRows = 8192

// DefaultWorkers is the worker sweep both engines run.
var DefaultWorkers = []int{1, 2, 4, 8}

// E22Row is one engine at one worker count; the rows alternate
// dataflow, volcano at each count of the sweep.
type E22Row struct {
	Engine  string    `col:"engine"`
	Workers int       `col:"workers"`
	SimTime sim.VTime `col:"simtime"`
	Speedup float64   `col:"speedup"` // vs the same engine at the sweep's first count
	Moved   sim.Bytes `col:"moved bytes,%d"`
	Rows    int64     `col:"rows"` // the same in every run
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
func E22Parallelism(rows int, sweep []int) (*Result[E22Row], error) {
	if len(sweep) == 0 {
		sweep = DefaultWorkers
	}
	cfg := workload.DefaultLineitemConfig(rows)
	data := workload.GenLineitem(cfg)
	q := plan.NewQuery("lineitem").
		WithFilter(workload.SelectivityFilter(cfg, 0.15)).
		WithProjection(workload.LOrderKey, workload.LExtendedPrice)

	res := newResult[E22Row]("E22",
		"Morsel-driven intra-query parallelism: speedup vs workers, dataflow vs volcano",
		"one morsel = one storage segment; dataflow scales until the serial NVMe "+
			"media path floors it, volcano only parallelizes fetch/decode and flattens "+
			"at the network link + serial operator chain; bytes and rows are identical "+
			"at every worker count")

	for i, w := range sweep {
		df, err := e22DataFlow(q, data, w)
		if err != nil {
			return nil, err
		}
		vo, err := e22Volcano(q, data, w)
		if err != nil {
			return nil, err
		}
		if df.Rows != vo.Rows {
			return nil, fmt.Errorf("experiments: E22 engines disagree at %d workers (%d vs %d rows)", w, df.Rows, vo.Rows)
		}
		if i > 0 {
			df0, vo0 := res.Rows[0], res.Rows[1]
			if df.Rows != df0.Rows || df.Moved != df0.Moved || vo.Moved != vo0.Moved {
				return nil, fmt.Errorf("experiments: E22 run at %d workers is not deterministic (rows %d, moved %v/%v)",
					w, df.Rows, df.Moved, vo.Moved)
			}
			df.Speedup, vo.Speedup = float64(df0.SimTime)/float64(df.SimTime), float64(vo0.SimTime)/float64(vo.SimTime)
		}
		res.put(df)
		res.put(vo)
		res.Table.SetMetric(fmt.Sprintf("dataflow_speedup_w%d", w), df.Speedup)
		res.Table.SetMetric(fmt.Sprintf("volcano_speedup_w%d", w), vo.Speedup)
		res.Table.SetMetric(fmt.Sprintf("dataflow_vs_volcano_w%d", w), float64(vo.SimTime)/float64(df.SimTime))
	}
	return res, nil
}

// e22DataFlow runs the query on a fresh dataflow engine at the given
// worker count, forcing the filter-pushdown variant so every worker
// sweep exercises the same plan shape. Its speedup is 1.
func e22DataFlow(q *plan.Query, data *columnar.Batch, workers int) (E22Row, error) {
	df := core.NewDataFlowEngine(fabric.NewCluster(fabric.DefaultClusterConfig()))
	df.Workers = workers
	df.Storage.SegmentRows = e22SegmentRows
	if err := loadDataFlow(df, "lineitem", data); err != nil {
		return E22Row{}, err
	}
	res, err := runVariant(df, q, "filter-pushdown", func(v *plan.Physical) bool {
		return v.HasPlacement(fabric.OpFilter, plan.SiteStorage)
	})
	if err != nil {
		return E22Row{}, err
	}
	return E22Row{"dataflow", workers, res.Stats.SimTime, 1, res.Stats.MovedBytes, res.Rows()}, nil
}

// e22Volcano runs the query on a fresh pull baseline at the given
// worker count. Its speedup is 1.
func e22Volcano(q *plan.Query, data *columnar.Batch, workers int) (E22Row, error) {
	vo := core.NewVolcanoEngine(fabric.NewCluster(fabric.LegacyClusterConfig()), 256*sim.MB)
	vo.Workers = workers
	vo.Storage.SegmentRows = e22SegmentRows
	if err := loadVolcano(vo, "lineitem", data); err != nil {
		return E22Row{}, err
	}
	res, err := vo.Execute(context.Background(), q)
	if err != nil {
		return E22Row{}, err
	}
	return E22Row{"volcano", workers, res.Stats.SimTime, 1, res.Stats.MovedBytes, res.Rows()}, nil
}
