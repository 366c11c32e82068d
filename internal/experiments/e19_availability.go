package experiments

import (
	"context"
	"fmt"
	"maps"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/faults"
	"repro/internal/plan"
	"repro/internal/sim"
	"repro/internal/workload"
)

// E19Row is one fault-rate point of the availability sweep.
type E19Row struct {
	Rate        float64   `col:"fault rate"`
	DFOK        slash     `col:"df ok"`      // data-flow queries that succeeded with correct rows / attempted
	VoOK        slash     `col:"volcano ok"` // volcano queries that succeeded with correct rows / attempted
	Retries     int64     `col:"retries"`
	Fallbacks   int64     `col:"fallbacks"`
	Failovers   int64     `col:"failovers"`
	DFInflation float64   `col:"df time x"` // DFTime relative to the zero-fault bucket
	VoInflation float64   `col:"vo time x,-"`
	DFTime      sim.VTime // mean per-query makespan incl. recovery waste
	VoTime      sim.VTime // mean per-query makespan over successes
}

// E19Result carries the availability comparison.
type E19Result struct {
	Result[E19Row]
	// Schedules holds the data-flow injector's rendered fault schedule
	// per rate bucket, and VoSchedules the volcano injector's. With a
	// fixed seed both are byte-identical across runs for every bucket
	// below e19KillRate. At the kill rates the data-flow engine aborts
	// an attempt mid-scan, and how far the canceled scan got (and hence
	// how many fault draws it made) depends on goroutine scheduling —
	// the volcano schedule stays byte-identical even there.
	Schedules   []string
	VoSchedules []string
}

// e19Seed fixes the fault schedule so the sweep is reproducible.
const e19Seed = 0xE19

// e19KillRate is the fault rate from which the sweep also kills an
// accelerator mid-query.
const e19KillRate = 0.02

// E19Availability measures availability under injected faults, the
// robustness counterpart to E10: the same query mix runs on the
// data-flow engine (replicated segments, bounded retry, device
// failover) and on the detect-only Volcano baseline (one copy, no
// retry) while storage faults fire at increasing rates. At the higher
// rates an accelerator is additionally killed mid-sweep, forcing the
// data-flow engine to fail over onto a degraded placement. The engine
// with a recovery path keeps answering — at a measurable makespan
// cost — while the baseline starts losing queries.
func E19Availability(rows int) (*E19Result, error) {
	rates := []float64{0, 0.005, 0.01, 0.02, 0.05}
	const trials = 4
	// From e19KillRate on, the sweep also kills the compute-node NIC the
	// optimizer likes for pre-aggregation, exercising failover.

	cfg := workload.DefaultLineitemConfig(rows)
	data := workload.GenLineitem(cfg)
	queries := []*plan.Query{
		plan.NewQuery("lineitem").WithCount(),
		plan.NewQuery("lineitem").WithGroupBy(workload.PricingSummary()),
		plan.NewQuery("lineitem").
			WithFilter(workload.SelectivityFilter(cfg, 0.1)).
			WithProjection(workload.LExtendedPrice),
	}
	total := trials * len(queries)
	// ~24 segments regardless of scale, so every query makes many
	// independent fault draws.
	segRows := rows/24 + 1

	buildDF := func() (*core.DataFlowEngine, error) {
		df := core.NewDataFlowEngine(fabric.NewCluster(fabric.DefaultClusterConfig()))
		df.Storage.Store().SetReplicas(2)
		df.Storage.Store().RetryBase = 0
		df.Storage.SegmentRows = segRows
		if err := loadDataFlow(df, "lineitem", data); err != nil {
			return nil, err
		}
		return df, nil
	}
	buildVo := func() (*core.VolcanoEngine, error) {
		// The pool is kept smaller than the table so later trials keep
		// fetching (and keep drawing faults) instead of hiding behind
		// cached pages.
		vo := core.NewVolcanoEngine(fabric.NewCluster(fabric.LegacyClusterConfig()), sim.MB)
		vo.Storage.SegmentRows = segRows
		vo.Storage.Store().MaxRetries = 0 // detect-only: faults surface
		if err := loadVolcano(vo, "lineitem", data); err != nil {
			return nil, err
		}
		return vo, nil
	}

	armStorage := func(in *faults.Injector, rate float64) {
		in.Arm(faults.Point{Kind: faults.TransientRead, Prob: rate})
		in.Arm(faults.Point{Kind: faults.CorruptBlob, Prob: rate / 2})
		in.Arm(faults.Point{Kind: faults.ObjectMissing, Prob: rate / 2})
	}

	res := &E19Result{Result: *newResult[E19Row]("E19",
		"Availability under injected faults: recovering data flow vs detect-only Volcano",
		"time x = mean per-query makespan (incl. recovery waste) relative to the fault-free bucket; "+
			fmt.Sprintf("rates >= %g also kill an accelerator mid-sweep; ", e19KillRate)+
			"the volcano mean covers only surviving queries, which ran mostly on pool pages warmed by failed attempts")}

	// expected[qi] is the reference row histogram, captured from the
	// fault-free bucket; every later success must reproduce it exactly.
	expected := make([]map[string]int, len(queries))
	var dfBase, voBase sim.VTime
	for _, rate := range rates {
		df, err := buildDF()
		if err != nil {
			return nil, err
		}
		inj := faults.New(e19Seed)
		armStorage(inj, rate)
		if rate >= e19KillRate {
			inj.Arm(faults.Point{Kind: faults.DeviceOffline,
				Target: fabric.ComputeDev(0, "nic"), Prob: 1, Budget: 1})
		}
		df.Faults = inj

		vo, err := buildVo()
		if err != nil {
			return nil, err
		}
		voInj := faults.New(e19Seed)
		armStorage(voInj, rate)
		vo.Faults = voInj

		row := E19Row{Rate: rate}
		var dfOK, voOK int
		var dfTime, voTime sim.VTime
		for trial := 0; trial < trials; trial++ {
			for qi, q := range queries {
				r, err := df.Execute(context.Background(), q)
				switch {
				case err != nil && rate == 0:
					return nil, fmt.Errorf("experiments: E19 fault-free data-flow run failed: %w", err)
				case err == nil:
					h := e19Histogram(r)
					if expected[qi] == nil {
						expected[qi] = h
					} else if !maps.Equal(h, expected[qi]) {
						return nil, fmt.Errorf("experiments: E19 data-flow returned wrong rows at rate %g", rate)
					}
					dfOK++
					row.Retries += r.Stats.Scan.Retries + r.Stats.QueryRetries
					row.Fallbacks += r.Stats.Scan.ReplicaFallbacks
					row.Failovers += int64(r.Stats.Failovers)
					dfTime += r.Stats.SimTime + r.Stats.RecoveryTime
				}

				vr, err := vo.Execute(context.Background(), q)
				switch {
				case err != nil && rate == 0:
					return nil, fmt.Errorf("experiments: E19 fault-free volcano run failed: %w", err)
				case err == nil:
					if expected[qi] != nil && !maps.Equal(e19Histogram(vr), expected[qi]) {
						return nil, fmt.Errorf("experiments: E19 volcano returned wrong rows at rate %g", rate)
					}
					voOK++
					voTime += vr.Stats.SimTime
				}
			}
		}
		row.DFOK, row.VoOK = slash{int64(dfOK), int64(total)}, slash{int64(voOK), int64(total)}
		if dfOK > 0 {
			row.DFTime = dfTime / sim.VTime(dfOK)
		}
		if voOK > 0 {
			row.VoTime = voTime / sim.VTime(voOK)
		}
		if rate == 0 {
			dfBase, voBase = row.DFTime, row.VoTime
		}
		if dfBase > 0 && dfOK > 0 {
			row.DFInflation = float64(row.DFTime) / float64(dfBase)
		}
		// Zero, printed "-", when no volcano query survived.
		if voBase > 0 && voOK > 0 {
			row.VoInflation = float64(row.VoTime) / float64(voBase)
		}
		res.Schedules = append(res.Schedules, inj.Schedule())
		res.VoSchedules = append(res.VoSchedules, voInj.Schedule())
		res.put(row)
		res.Table.SetMetric(fmt.Sprintf("df_ok@%g", rate), float64(dfOK)/float64(total))
		res.Table.SetMetric(fmt.Sprintf("vo_ok@%g", rate), float64(voOK)/float64(total))
	}
	return res, nil
}

// e19Histogram counts result rows by their rendered form, for an
// order-insensitive comparison that also catches duplicated rows.
func e19Histogram(r *core.Result) map[string]int {
	out := make(map[string]int)
	for _, b := range r.Batches {
		for i := 0; i < b.NumRows(); i++ {
			var key string
			for _, v := range b.Row(i) {
				key += v.String() + "\x00"
			}
			out[key]++
		}
	}
	return out
}
