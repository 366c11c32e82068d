package core

import (
	"context"
	"fmt"

	"repro/internal/columnar"
	"repro/internal/exec"
	"repro/internal/fabric"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/storage"
)

// JoinQuery is an equi-join between two stored tables. The build side
// should be the smaller table.
type JoinQuery struct {
	Probe    string // probe-side (streaming) table
	Build    string // build-side (hash table) table
	ProbeKey int    // key column in the probe schema
	BuildKey int    // key column in the build schema
	// Nodes is how many compute nodes participate; 0 means all.
	Nodes int
}

// ExecuteJoin runs the Figure 4 plan: both sides are scanned at storage
// and scattered by key — on the storage NIC when it is smart, otherwise
// on compute node 0's CPU — to per-node hash joins; results gather on
// node 0.
func (e *DataFlowEngine) ExecuteJoin(ctx context.Context, jq JoinQuery) (*Result, error) {
	ctx = ctxOrBackground(ctx)
	startWall := e.Clock.Now()
	nodes := jq.Nodes
	if nodes <= 0 {
		nodes = e.Cluster.Cfg.ComputeNodes
	}
	if nodes > e.Cluster.Cfg.ComputeNodes {
		return nil, fmt.Errorf("core: join wants %d nodes, cluster has %d", nodes, e.Cluster.Cfg.ComputeNodes)
	}
	acct := e.Cluster.NewAccount()

	build, scan, err := e.materialize(ctx, jq.Build, acct)
	if err != nil {
		return nil, lifecycleError(err)
	}
	probe, probeScan, err := e.materialize(ctx, jq.Probe, acct)
	if err != nil {
		return nil, lifecycleError(err)
	}
	scan.Add(probeScan)
	if err := ctx.Err(); err != nil {
		return nil, lifecycleError(err)
	}

	scatter, ship, err := e.scatterPoint(acct)
	if err != nil {
		return nil, err
	}
	ship(build...)
	ship(probe...)

	cfg := netsim.DistJoinConfig{
		BuildKey:      jq.BuildKey,
		ProbeKey:      jq.ProbeKey,
		ScatterDevice: scatter,
		BatchRows:     storage.DefaultBatchRows,
		Workers:       e.Workers,
		Account:       acct,
	}
	for i := 0; i < nodes; i++ {
		cfg.Nodes = append(cfg.Nodes, e.Cluster.ComputeCPU(i))
		path, err := e.Cluster.Path(scatter.Name, fabric.ComputeDev(i, "cpu"))
		if err != nil {
			return nil, err
		}
		cfg.Paths = append(cfg.Paths, path)
	}

	// Per-node results gather back to node 0.
	perNode := make([][]*columnar.Batch, nodes)
	_, err = netsim.DistributedJoin(ctx, cfg, build, probe, func(node int, b *columnar.Batch) error {
		perNode[node] = append(perNode[node], b)
		return nil
	})
	if err != nil {
		return nil, lifecycleError(err)
	}
	gatherPaths := make([][]*fabric.Link, nodes)
	for i := 1; i < nodes; i++ { // node 0's results are already local
		p, err := e.Cluster.Path(fabric.ComputeDev(i, "cpu"), fabric.ComputeDev(0, "cpu"))
		if err != nil {
			return nil, err
		}
		gatherPaths[i] = p
	}
	batches := netsim.Gather(acct, perNode, gatherPaths)

	res := &Result{Batches: batches}
	res.Stats, _ = fold(acct, nil)
	res.Stats.Engine, res.Stats.Variant, res.Stats.ResultRows = e.engine, "distributed-join", res.Rows()
	res.Stats.Scan = scan
	e.publishQuery(ctx, res, startWall)
	return res, nil
}

// scatterPoint picks the device a Figure 4 exchange partitions on — the
// storage NIC if it can partition, else the first compute node's CPU
// (the legacy exchange) — and returns it with ship, which charges acct
// for scanned batches' trip from the storage processor to it, link by
// link.
func (e *DataFlowEngine) scatterPoint(acct *fabric.Account) (*fabric.Device, func(...*columnar.Batch), error) {
	scatter := e.Cluster.StorageNIC()
	if !scatter.Can(fabric.OpPartition) {
		scatter = e.Cluster.ComputeCPU(0)
	}
	path, err := e.Cluster.Path(e.Storage.Proc().Name, scatter.Name)
	if err != nil {
		return nil, nil, err
	}
	ship := func(batches ...*columnar.Batch) {
		for _, b := range batches {
			for _, l := range path {
				acct.Transfer(l, sim.Bytes(b.ByteSize()))
			}
		}
	}
	return scatter, ship, nil
}

// materialize scans a full table into batches, charging the storage
// side (media read + decode) to acct but not shipping anywhere yet — the
// exchange does the shipping.
func (e *DataFlowEngine) materialize(ctx context.Context, table string, acct *fabric.Account) ([]*columnar.Batch, storage.ScanStats, error) {
	var out []*columnar.Batch
	st, err := e.Storage.Scan(ctx, table, storage.ScanSpec{Workers: e.Workers, Account: acct}, func(b *columnar.Batch) error {
		out = append(out, b)
		return nil
	})
	if err != nil {
		return nil, st, err
	}
	if len(out) == 0 {
		return nil, st, fmt.Errorf("core: table %q is empty", table)
	}
	return out, st, nil
}

// ExecuteJoin on the Volcano baseline: both sides are pulled through the
// buffer pool to compute node 0 and joined there — the build side
// drained into a hash table before the first probe pull, then the probe
// side pulled through the join stage — no exchange, no other nodes, all
// bytes to one CPU. Both scans pull at width 1 whatever Workers says:
// the join's parallelism goes to the table's build.
func (e *VolcanoEngine) ExecuteJoin(ctx context.Context, jq JoinQuery) (*Result, error) {
	startWall := e.Clock.Now()
	acct := &volcanoAccount{work: e.Cluster.NewAccount()}
	ctx = context.WithValue(ctxOrBackground(ctx), volcanoAccountKey{}, acct)
	buildMeta, err := e.Storage.Table(jq.Build)
	if err != nil {
		return nil, err
	}
	probeMeta, err := e.Storage.Table(jq.Probe)
	if err != nil {
		return nil, err
	}
	build, _ := e.scan(ctx, buildMeta, 1, nil) // width 1: nothing to clean up
	probe, _ := e.scan(ctx, probeMeta, 1, nil)
	table := exec.NewHashTable(buildMeta.Schema, jq.BuildKey, e.Workers)
	if _, err := exec.Drain(exec.Pull(build, &exec.BuildStage{Table: table})); err != nil {
		return nil, lifecycleError(err)
	}
	// The CPU is charged for join work per joined batch.
	join := exec.Pull(probe, &exec.HashJoinStage{Table: table, ProbeKey: jq.ProbeKey})
	batches, err := exec.Drain(e.charge(acct, join, fabric.OpJoin, "join"))
	if err != nil {
		return nil, lifecycleError(err)
	}
	res := &Result{Batches: batches}
	res.Stats = e.buildStats(acct, res)
	res.Stats.Variant = "volcano-join"
	e.publishQuery(ctx, res, startWall)
	return res, nil
}
