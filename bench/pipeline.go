package main

import (
	"fmt"

	"repro/internal/columnar"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/fabric"
	"repro/internal/flow"
	"repro/internal/plan"
	"repro/internal/storage"
)

// To time the storage scan, the operator chain and the flow runtime one
// at a time, the traced pass has to build from a physical plan what
// DataFlowEngine builds inside executePlan: the scan request and the
// stages after it. The engine does not export that step, so this file
// repeats it for the plan shapes the benchmark's queries produce (filter,
// projection, pre-aggregation, count, final aggregation). The traced
// pass checks the chain's output against the oracle, so a drift between
// this copy and the engine fails the run instead of skewing a number.

// identityStage passes batches through: the engine's terminal "deliver"
// stage, and the unit of flow.port_ns_per_batch.
type identityStage struct{}

func (identityStage) Name() string                                    { return "deliver" }
func (identityStage) Process(b *columnar.Batch, emit flow.Emit) error { return emit(b) }
func (identityStage) Flush(flow.Emit) error                           { return nil }

// scanSpecFor is the storage scan request of a plan (core.buildScanSpec).
func scanSpecFor(eng *core.DataFlowEngine, ph *plan.Physical, schema *columnar.Schema) (spec storage.ScanSpec, partials bool, err error) {
	q := ph.Query
	if q.OrderBy >= 0 || q.Limit > 0 || eng.SecureWire {
		return spec, false, fmt.Errorf("bench: plan shape of %s is not one the traced pass rebuilds", q)
	}
	filterAt := ph.HasPlacement(fabric.OpFilter, plan.SiteStorage)
	preaggAt := ph.HasPlacement(fabric.OpPreAgg, plan.SiteStorage)
	countAt := ph.HasPlacement(fabric.OpCount, plan.SiteStorage)
	projectAt := ph.HasPlacement(fabric.OpProject, plan.SiteStorage)
	spec = storage.ScanSpec{
		Projection:  q.Projection,
		Filter:      q.Filter,
		Pushdown:    filterAt || preaggAt || countAt || projectAt,
		EncodedEval: ph.EncodedEval && !eng.EagerDecode,
		Workers:     eng.Workers,
	}
	switch {
	case preaggAt:
		spec.PreAgg = q.GroupBy
		partials = true
	case countAt:
		spec.PreAgg = &expr.GroupBy{Aggs: []expr.AggSpec{{Func: expr.Count}}}
		partials = true
	case q.CountOnly && q.Projection == nil:
		narrow := 0
		if q.Filter != nil {
			narrow = q.Filter.Columns()[0]
		}
		spec.Projection = []int{narrow}
	case q.GroupBy != nil && q.Projection == nil:
		spec.Projection = touchedColumns(q, schema.NumFields())
	}
	return spec, partials, nil
}

// touchedColumns is the ascending union of a query's group-by, aggregate
// and filter columns.
func touchedColumns(q *plan.Query, numFields int) []int {
	used := make([]bool, numFields)
	for _, c := range q.GroupBy.GroupCols {
		used[c] = true
	}
	for _, a := range q.GroupBy.Aggs {
		if a.Func != expr.Count {
			used[a.Col] = true
		}
	}
	if q.Filter != nil {
		for _, c := range q.Filter.Columns() {
			used[c] = true
		}
	}
	var out []int
	for c, u := range used {
		if u {
			out = append(out, c)
		}
	}
	return out
}

// stagesFor builds a fresh copy of the stages that follow the scan, and
// the links between them (core.buildStages). Aggregating stages hold
// state, so every run needs its own copy.
func stagesFor(eng *core.DataFlowEngine, ph *plan.Physical, spec storage.ScanSpec, partials bool, schema *columnar.Schema) ([]flow.Placed, [][]*fabric.Link, error) {
	q := ph.Query
	pm := ph.Path
	cols := spec.ShippedColumns(schema.NumFields())
	posOf := func(c int) int {
		for i, cc := range cols {
			if cc == c {
				return i
			}
		}
		return -1
	}
	var stages []flow.Placed
	var paths [][]*fabric.Link
	prev := pm.Sites[0].Device
	add := func(st flow.Stage, dev *fabric.Device, op fabric.OpClass) error {
		links, err := eng.Cluster.Path(prev.Name, dev.Name)
		if err != nil {
			return err
		}
		stages = append(stages, flow.Placed{Stage: st, Device: dev, Op: op, ChargeInput: true})
		paths = append(paths, links)
		prev = dev
		return nil
	}
	aggregated := false
	for i := 1; i < len(pm.Sites); i++ {
		dev := pm.Sites[i].Device
		for _, op := range ph.PlacementsAt(i) {
			var st flow.Stage
			switch op {
			case fabric.OpFilter:
				st = &exec.FilterStage{Pred: expr.Rebase(q.Filter, posOf)}
			case fabric.OpProject:
				positions := make([]int, len(q.Projection))
				for j, c := range q.Projection {
					positions[j] = posOf(c)
				}
				st = &exec.ProjectStage{Columns: positions}
				cols = q.Projection
			case fabric.OpPreAgg:
				budget := 0
				if dev.StateBudget != 0 {
					budget = int(dev.StateBudget / expr.StateSize)
				}
				if partials {
					merge := expr.GroupBy{GroupCols: make([]int, len(q.GroupBy.GroupCols)), Aggs: q.GroupBy.Aggs}
					for j := range merge.GroupCols {
						merge.GroupCols[j] = j
					}
					st = &exec.PreAggStage{Agg: expr.NewPartialAggregator(merge, expr.PartialSchema(*q.GroupBy, schema), budget)}
				} else {
					st = &exec.PreAggStage{Agg: expr.NewPartialAggregator(q.GroupBy.Rebase(posOf), schema.Project(cols), budget), Raw: true}
				}
				partials = true
			case fabric.OpCount:
				st = &exec.CountStage{}
				partials, aggregated = false, true
			case fabric.OpAggregate:
				if partials {
					st = &exec.FinalAggStage{Agg: expr.NewFinalAggregator(*q.GroupBy, schema)}
				} else {
					st = &exec.FinalAggStage{Agg: expr.NewFinalAggregator(q.GroupBy.Rebase(posOf), schema.Project(cols)), Raw: true}
				}
				partials, aggregated = false, true
			default:
				return nil, nil, fmt.Errorf("bench: the traced pass does not rebuild %s stages", op)
			}
			if err := add(st, dev, op); err != nil {
				return nil, nil, err
			}
		}
	}
	cpu := pm.CPU()
	if partials && !aggregated {
		spec := expr.GroupBy{Aggs: []expr.AggSpec{{Func: expr.Count}}}
		if !q.CountOnly {
			spec = *q.GroupBy
		}
		if err := add(&exec.FinalAggStage{Agg: expr.NewFinalAggregator(spec, schema)}, cpu, fabric.OpAggregate); err != nil {
			return nil, nil, err
		}
	}
	if prev != cpu {
		if err := add(identityStage{}, cpu, fabric.OpScan); err != nil {
			return nil, nil, err
		}
	}
	return stages, paths, nil
}

// runChain pushes batches through the stages synchronously, on the
// calling goroutine, with no ports, credits or device charges between
// them: the operators' own cost.
func runChain(stages []flow.Placed, batches []*columnar.Batch, sink flow.Emit) error {
	emits := make([]flow.Emit, len(stages)+1)
	emits[len(stages)] = sink
	for i := len(stages) - 1; i >= 0; i-- {
		st, next := stages[i].Stage, emits[i+1]
		emits[i] = func(b *columnar.Batch) error { return st.Process(b, next) }
	}
	for _, b := range batches {
		if err := emits[0](b); err != nil {
			return err
		}
	}
	for i, st := range stages {
		if err := st.Stage.Flush(emits[i+1]); err != nil {
			return err
		}
	}
	return nil
}
