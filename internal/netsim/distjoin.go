package netsim

import (
	"fmt"

	"repro/internal/columnar"
	"repro/internal/exec"
	"repro/internal/fabric"
	"repro/internal/sim"
)

// DistJoinConfig describes the Figure 4 scenario: a partitioned hash
// join across several compute nodes with the scatter executed either on
// the smart NIC (no CPU involvement) or on the CPUs (baseline).
type DistJoinConfig struct {
	// BuildKey/ProbeKey are key column indices within each side's
	// schema.
	BuildKey, ProbeKey int
	// Nodes lists each participating compute node's CPU, which executes
	// the local build and probe.
	Nodes []*fabric.Device
	// ScatterDevice partitions the streams (a smart NIC or a CPU).
	ScatterDevice *fabric.Device
	// Paths[i] is the fabric path from the scatter point to node i.
	Paths [][]*fabric.Link
	// BatchRows is the exchange granule.
	BatchRows int
	// Workers is each node's hash-table build width (exec.HashTable);
	// results are identical at every width.
	Workers int
	// Account, when non-nil, is the query's account: the scatter
	// device's, the nodes' and the paths' charges are recorded on it.
	Account *fabric.Account
}

// DistJoinResult reports the outcome and cost decomposition.
type DistJoinResult struct {
	Rows         int64     // joined output rows across all nodes
	ScatterBytes sim.Bytes // bytes the scatter device processed
	CPUBytes     sim.Bytes // bytes charged to node CPUs (join work)
	SkewMax      int64     // largest per-node probe share
	SkewMin      int64     // smallest per-node probe share
}

// DistributedJoin executes a partitioned hash join: the build side is
// scattered by key to per-node hash tables, then the probe side is
// scattered the same way and probed locally. Matching rows are counted
// per node (gathering full results is the caller's choice via onResult).
func DistributedJoin(cfg DistJoinConfig, build, probe []*columnar.Batch, onResult func(node int, b *columnar.Batch) error) (DistJoinResult, error) {
	var res DistJoinResult
	n := len(cfg.Nodes)
	if n == 0 {
		return res, fmt.Errorf("netsim: distributed join needs nodes")
	}
	if len(cfg.Paths) != n {
		return res, fmt.Errorf("netsim: %d paths for %d nodes", len(cfg.Paths), n)
	}
	if len(build) == 0 {
		return res, fmt.Errorf("netsim: empty build side")
	}
	if cfg.ScatterDevice == nil || !cfg.ScatterDevice.Can(fabric.OpPartition) {
		return res, fmt.Errorf("netsim: scatter device cannot partition")
	}

	cfg.Account.ChargeSetup(cfg.ScatterDevice)

	// Phase 1: scatter the build side into per-node hash tables.
	buildSchema := build[0].Schema()
	tables := make([]*exec.HashTable, n)
	for i := range tables {
		tables[i] = exec.NewHashTable(buildSchema, cfg.BuildKey, cfg.Workers)
	}
	err := cfg.scatter(&res, cfg.BuildKey, build, func(i int, b *columnar.Batch) error {
		tables[i].Build(b)
		return nil
	})
	if err != nil {
		return res, err
	}

	// Phase 2: scatter the probe side and probe locally.
	perNodeRows := make([]int64, n)
	err = cfg.scatter(&res, cfg.ProbeKey, probe, func(i int, b *columnar.Batch) error {
		perNodeRows[i] += int64(b.NumRows())
		out := tables[i].Probe(b, cfg.ProbeKey)
		if out.NumRows() == 0 {
			return nil
		}
		res.Rows += int64(out.NumRows())
		if onResult != nil {
			return onResult(i, out)
		}
		return nil
	})
	if err != nil {
		return res, err
	}

	res.SkewMax, res.SkewMin = perNodeRows[0], perNodeRows[0]
	for _, r := range perNodeRows[1:] {
		if r > res.SkewMax {
			res.SkewMax = r
		}
		if r < res.SkewMin {
			res.SkewMin = r
		}
	}
	return res, nil
}

// scatter partitions one side of the join by key on the scatter device
// and ships every node's share down its path, where the node's CPU is
// charged for the join work before sink builds or probes with it. The
// bytes charged to either are summed into res as they are charged.
func (cfg DistJoinConfig) scatter(res *DistJoinResult, key int, side []*columnar.Batch, sink func(node int, b *columnar.Batch) error) error {
	dests := make([]Destination, len(cfg.Nodes))
	for i := range dests {
		dests[i] = Destination{
			Path: cfg.Paths[i],
			Sink: func(b *columnar.Batch) error {
				n := sim.Bytes(b.ByteSize())
				cfg.Account.Charge(cfg.Nodes[i], fabric.OpJoin, n)
				res.CPUBytes += n
				return sink(i, b)
			},
		}
	}
	ex, err := NewExchange(key, dests)
	if err != nil {
		return err
	}
	ex.Account = cfg.Account
	if cfg.BatchRows > 0 {
		ex.BatchRows = cfg.BatchRows
	}
	for _, b := range side {
		n := sim.Bytes(b.ByteSize())
		cfg.Account.Charge(cfg.ScatterDevice, fabric.OpPartition, n)
		res.ScatterBytes += n
		if err := ex.Process(b, nil); err != nil {
			return err
		}
	}
	return ex.Flush(nil)
}
