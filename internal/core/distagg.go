package core

import (
	"context"
	"fmt"

	"repro/internal/columnar"
	"repro/internal/expr"
	"repro/internal/fabric"
	"repro/internal/netsim"
	"repro/internal/plan"
	"repro/internal/sim"
	"repro/internal/storage"
)

// ExecuteGroupByDistributed runs a group-by query across several compute
// nodes using the Figure 4 scattering pipeline: the (optionally
// storage-filtered) stream is hash-partitioned on the first group
// column — on the storage NIC when it is smart, on compute node 0's CPU
// otherwise — each node aggregates its disjoint share of the groups, and
// the per-node results gather on node 0. Because partitioning is by
// group key, no cross-node merge is needed and results are exact.
func (e *DataFlowEngine) ExecuteGroupByDistributed(ctx context.Context, q *plan.Query, nodes int) (*Result, error) {
	ctx = ctxOrBackground(ctx)
	startWall := e.Clock.Now()
	if err := q.Validate(); err != nil {
		return nil, err
	}
	if q.GroupBy == nil || len(q.GroupBy.GroupCols) == 0 {
		return nil, fmt.Errorf("core: distributed execution needs a keyed GROUP BY")
	}
	if nodes <= 0 {
		nodes = e.Cluster.Cfg.ComputeNodes
	}
	if nodes > e.Cluster.Cfg.ComputeNodes {
		return nil, fmt.Errorf("core: want %d nodes, cluster has %d", nodes, e.Cluster.Cfg.ComputeNodes)
	}
	meta, err := e.Storage.Table(q.Table)
	if err != nil {
		return nil, err
	}
	acct := e.Cluster.NewAccount()

	// Scan with filter pushdown when the storage processor allows it;
	// ship only the columns the aggregation touches.
	spec := storage.ScanSpec{
		Filter:     q.Filter,
		Projection: expr.ColumnSet(meta.Schema.NumFields(), q.Filter, q.GroupBy, nil),
		Pushdown:   q.Filter != nil && e.Storage.Proc().Can(fabric.OpFilter),
		Account:    acct,
	}
	shipped := spec.ShippedColumns(meta.Schema.NumFields())
	pos := make(map[int]int, len(shipped))
	for i, c := range shipped {
		pos[c] = i
	}
	rebase := func(c int) int { return pos[c] }
	shippedSchema := meta.Schema.Project(shipped)
	rebasedSpec := q.GroupBy.Rebase(rebase)
	var shippedFilter expr.Predicate
	if q.Filter != nil && !spec.Pushdown {
		shippedFilter = expr.Rebase(q.Filter, rebase)
	}

	// Scatter point and per-node aggregation state.
	scatter, ship, err := e.scatterPoint(acct)
	if err != nil {
		return nil, err
	}
	aggs := make([]*expr.FinalAggregator, nodes)
	dests := make([]netsim.Destination, nodes)
	for i := 0; i < nodes; i++ {
		i := i
		aggs[i] = expr.NewFinalAggregator(rebasedSpec, shippedSchema)
		cpu := e.Cluster.ComputeCPU(i)
		path, err := e.Cluster.Path(scatter.Name, cpu.Name)
		if err != nil {
			return nil, err
		}
		dests[i] = netsim.Destination{
			Path: path,
			Sink: func(b *columnar.Batch) error {
				if shippedFilter != nil {
					acct.Charge(cpu, fabric.OpFilter, sim.Bytes(b.ByteSize()))
					b = b.Filter(shippedFilter.Eval(b))
				}
				acct.Charge(cpu, fabric.OpAggregate, sim.Bytes(b.ByteSize()))
				aggs[i].AddRaw(b)
				return nil
			},
		}
	}
	ex, err := netsim.NewExchange(rebasedSpec.GroupCols[0], dests)
	if err != nil {
		return nil, err
	}
	ex.Account = acct

	acct.ChargeSetup(scatter)
	scan, err := e.Storage.Scan(ctx, q.Table, spec, func(b *columnar.Batch) error {
		ship(b)
		acct.Charge(scatter, fabric.OpPartition, sim.Bytes(b.ByteSize()))
		return ex.Process(b, nil)
	})
	if err != nil {
		return nil, lifecycleError(err)
	}
	if err := ex.Flush(nil); err != nil {
		return nil, err
	}

	// Gather per-node results on node 0.
	parts := make([][]*columnar.Batch, nodes)
	gatherPaths := make([][]*fabric.Link, nodes)
	for i := 0; i < nodes; i++ {
		parts[i] = []*columnar.Batch{aggs[i].Result()}
		if i > 0 {
			p, err := e.Cluster.Path(fabric.ComputeDev(i, "cpu"), fabric.ComputeDev(0, "cpu"))
			if err != nil {
				return nil, err
			}
			gatherPaths[i] = p
		}
	}
	res := &Result{Batches: netsim.Gather(acct, parts, gatherPaths)}
	res.Stats, _ = fold(acct, nil)
	res.Stats.Engine, res.Stats.Variant, res.Stats.ResultRows = e.engine, fmt.Sprintf("distributed-groupby-%dn", nodes), res.Rows()
	res.Stats.Scan = scan
	e.publishQuery(ctx, res, startWall)
	return res, nil
}
