package experiments

import (
	"context"
	"fmt"

	"repro/internal/columnar"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/fabric"
	"repro/internal/flow"
	"repro/internal/netsim"
	"repro/internal/plan"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/workload"
)

// E3Result carries the Figure 3 pipeline measurements.
type E3Result struct {
	*Table
	CPUBusyNIC  sim.VTime // compute-CPU busy when the NIC hashes
	CPUBusyCPU  sim.VTime // compute-CPU busy when the CPU hashes
	HashesAgree bool
}

// E3NICHashPipeline reproduces Figure 3: a streaming pipeline with
// projection at storage and hashing at the receiving NIC, against the
// same plan with hashing on the CPU. The NIC variant leaves the CPU
// almost idle while producing identical hashes.
func E3NICHashPipeline(rows int) (*E3Result, error) {
	cfg := workload.DefaultLineitemConfig(rows)
	data := workload.GenLineitem(cfg)

	res := &E3Result{Table: &Table{
		ID:     "E3",
		Title:  "NIC hashing pipeline (Figure 3): who computes the hash",
		Header: []string{"variant", "cpu busy", "nic busy", "rows hashed"},
		Notes:  "projection at storage in both variants; hashes verified identical",
	}}

	run := func(hashOnNIC bool) (sim.VTime, sim.VTime, []int64, error) {
		cluster := fabric.NewCluster(fabric.DefaultClusterConfig())
		eng := core.NewDataFlowEngine(cluster)
		if err := loadDataFlow(eng, "lineitem", data); err != nil {
			return 0, 0, nil, err
		}
		cpu := cluster.ComputeCPU(0)
		nic := cluster.ComputeNIC(0)

		spec := storage.ScanSpec{Projection: []int{workload.LOrderKey}, Pushdown: true}
		hashDev, hashOp := cpu, fabric.OpHash
		if hashOnNIC {
			hashDev = nic
		}
		var hashes []int64
		pipe := &flow.Pipeline{
			Name: "e3",
			Source: func(emit flow.Emit) error {
				_, err := eng.Storage.Scan(context.Background(), "lineitem", spec, emit)
				return err
			},
			Stages: []flow.Placed{
				{Stage: &exec.HashStage{KeyCol: 0}, Device: hashDev, Op: hashOp, ChargeInput: true},
				{Stage: passthrough{}, Device: cpu, Op: fabric.OpScan, ChargeInput: true},
			},
			Paths: [][]*fabric.Link{
				mustPath(cluster, fabric.DevStorageProc, hashDev.Name),
				mustPath(cluster, hashDev.Name, cpu.Name),
			},
		}
		if _, err := pipe.Run(context.Background(), func(b *columnar.Batch) error {
			hashes = append(hashes, b.Col(1).Int64s()...)
			return nil
		}); err != nil {
			return 0, 0, nil, err
		}
		return cpu.Meter.Busy(), nic.Meter.Busy(), hashes, nil
	}

	cpuBusyNIC, nicBusyNIC, hashesNIC, err := run(true)
	if err != nil {
		return nil, err
	}
	cpuBusyCPU, nicBusyCPU, hashesCPU, err := run(false)
	if err != nil {
		return nil, err
	}
	res.CPUBusyNIC, res.CPUBusyCPU = cpuBusyNIC, cpuBusyCPU
	res.HashesAgree = len(hashesNIC) == len(hashesCPU)
	if res.HashesAgree {
		for i := range hashesNIC {
			if hashesNIC[i] != hashesCPU[i] {
				res.HashesAgree = false
				break
			}
		}
	}
	res.Table.AddRow("hash@nic", cpuBusyNIC.String(), nicBusyNIC.String(), d(int64(len(hashesNIC))))
	res.Table.AddRow("hash@cpu", cpuBusyCPU.String(), nicBusyCPU.String(), d(int64(len(hashesCPU))))
	return res, nil
}

type passthrough struct{}

func (passthrough) Name() string                                    { return "deliver" }
func (passthrough) Process(b *columnar.Batch, emit flow.Emit) error { return emit(b) }
func (passthrough) Flush(flow.Emit) error                           { return nil }

func mustPath(c *fabric.Cluster, a, b string) []*fabric.Link {
	p, err := c.Path(a, b)
	if err != nil {
		panic(err)
	}
	return p
}

// E4Row is one group-cardinality point of the staged pre-aggregation
// sweep.
type E4Row struct {
	Groups       int64
	RowsIntoCPU  int64 // partial rows the CPU has to merge, full offload
	RowsIntoCPU0 int64 // rows the CPU consumes with no offload
	NetBytesFull sim.Bytes
	NetBytesNone sim.Bytes
}

// E4Result carries the staged pre-aggregation sweep.
type E4Result struct {
	Result[E4Row]
	// ChosenLow/ChosenHigh are the variants the optimizer itself picks
	// at the lowest and highest cardinality — it must ride the
	// crossover.
	ChosenLow  string
	ChosenHigh string
}

// E4StagedPreAgg reproduces Section 4.4's staged group-by: partial
// aggregation at storage and on both NICs multiplies the reduction, so
// the CPU merges a stream whose size tracks group cardinality rather
// than table cardinality.
func E4StagedPreAgg(rows int, cardinalities []int64) (*E4Result, error) {
	res := &E4Result{Result: Result[E4Row]{Table: &Table{
		ID:     "E4",
		Title:  "Staged pre-aggregation (Section 4.4): rows reaching the CPU vs group count",
		Header: []string{"groups", "rows->cpu full-offload", "rows->cpu cpu-only", "net full", "net none"},
		Notes:  "pre-aggregation at storage + both NICs; accuracy is exact (partials merge associatively)",
	}}}
	netLink := "storage.nic--switch"
	for _, groups := range cardinalities {
		data := workload.GenKV(workload.KVConfig{Rows: rows, Keys: groups, Seed: 11})
		eng := core.NewDataFlowEngine(fabric.NewCluster(fabric.DefaultClusterConfig()))
		if err := loadDataFlow(eng, "kv", data); err != nil {
			return nil, err
		}
		q := plan.NewQuery("kv").WithGroupBy(workload.KVGroupBy())
		variants, err := eng.Plan(q, 0)
		if err != nil {
			return nil, err
		}
		if groups == cardinalities[0] {
			res.ChosenLow = variants[0].Variant
		}
		if groups == cardinalities[len(cardinalities)-1] {
			res.ChosenHigh = variants[0].Variant
		}
		fullRes, err := runNamed(eng, q, "full-offload")
		if err != nil {
			return nil, err
		}
		cpuRes, err := runNamed(eng, q, "cpu-only")
		if err != nil {
			return nil, err
		}
		if fullRes.Rows() != cpuRes.Rows() {
			return nil, fmt.Errorf("experiments: E4 results disagree (%d vs %d groups)", fullRes.Rows(), cpuRes.Rows())
		}
		row := E4Row{
			Groups:       int64(fullRes.Rows()),
			RowsIntoCPU:  cpuRowsConsumed(fullRes),
			RowsIntoCPU0: cpuRowsConsumed(cpuRes),
			NetBytesFull: fullRes.Stats.LinkBytes[netLink],
			NetBytesNone: cpuRes.Stats.LinkBytes[netLink],
		}
		res.add(row, d(row.Groups), d(row.RowsIntoCPU), d(row.RowsIntoCPU0),
			row.NetBytesFull.String(), row.NetBytesNone.String())
	}
	return res, nil
}

// cpuRowsConsumed derives the rows the compute CPU had to ingest from
// its byte meter (16B per kv row raw; partial rows are wider but far
// fewer). We report bytes/8 as a row-equivalent to stay unit-consistent.
func cpuRowsConsumed(r *core.Result) int64 {
	return int64(r.Stats.CPUBytes) / 16
}

// E5Result carries the distributed-join comparison.
type E5Result struct {
	*Table
	NICMode  netsim.DistJoinResult
	CPUMode  netsim.DistJoinResult
	NICCPUBy sim.Bytes // bytes CPUs touched, NIC scatter
	CPUCPUBy sim.Bytes // bytes CPUs touched, CPU scatter
}

// E5PartitionedJoin reproduces Figure 4: the NIC-executed scattering
// pipeline for a distributed partitioned hash join relieves the CPUs of
// all exchange work. Both joins run under ctx.
func E5PartitionedJoin(ctx context.Context, buildRows, probeRows, nodes int) (*E5Result, error) {
	build := []*columnar.Batch{workload.GenKV(workload.KVConfig{Rows: buildRows, Keys: int64(buildRows), Seed: 3})}
	probe := []*columnar.Batch{workload.GenKV(workload.KVConfig{Rows: probeRows, Keys: int64(buildRows) * 2, Seed: 4})}

	run := func(onNIC bool) (netsim.DistJoinResult, sim.Bytes, error) {
		cfg := netsim.DistJoinConfig{BuildKey: 0, ProbeKey: 0, BatchRows: 1024}
		if onNIC {
			cfg.ScatterDevice = fabric.NewSmartNIC("scatter-nic", sim.GbitPerSec(400))
		} else {
			cfg.ScatterDevice = fabric.NewCPU("scatter-cpu", 8)
		}
		for i := 0; i < nodes; i++ {
			cfg.Nodes = append(cfg.Nodes, fabric.NewCPU("cpu", 8))
			cfg.Paths = append(cfg.Paths, []*fabric.Link{{
				Name: "eth", A: "sw", B: "n", Bandwidth: sim.GbitPerSec(400), Latency: fabric.RDMALatency,
			}})
		}
		r, err := netsim.DistributedJoin(ctx, cfg, build, probe, nil)
		if err != nil {
			return r, 0, err
		}
		cpuBytes := r.CPUBytes
		if !onNIC {
			cpuBytes += r.ScatterBytes // the scatter ran on a CPU
		}
		return r, cpuBytes, nil
	}

	nicRes, nicCPU, err := run(true)
	if err != nil {
		return nil, err
	}
	cpuRes, cpuCPU, err := run(false)
	if err != nil {
		return nil, err
	}
	if nicRes.Rows != cpuRes.Rows {
		return nil, fmt.Errorf("experiments: E5 modes disagree (%d vs %d rows)", nicRes.Rows, cpuRes.Rows)
	}
	t := &Table{
		ID:     "E5",
		Title:  fmt.Sprintf("Distributed partitioned join (Figure 4), %d nodes", nodes),
		Header: []string{"scatter", "joined rows", "cpu bytes", "scatter-device bytes", "probe skew max/min"},
		Notes:  "NIC scatter removes the exchange from the CPUs entirely",
	}
	t.AddRow("nic", d(nicRes.Rows), nicCPU.String(), nicRes.ScatterBytes.String(),
		fmt.Sprintf("%d/%d", nicRes.SkewMax, nicRes.SkewMin))
	t.AddRow("cpu", d(cpuRes.Rows), cpuCPU.String(), cpuRes.ScatterBytes.String(),
		fmt.Sprintf("%d/%d", cpuRes.SkewMax, cpuRes.SkewMin))
	return &E5Result{Table: t, NICMode: nicRes, CPUMode: cpuRes, NICCPUBy: nicCPU, CPUCPUBy: cpuCPU}, nil
}

// E6Result carries the NIC-count measurements.
type E6Result struct {
	*Table
	Count      int64
	SmartNet   sim.Bytes
	SmartHost  sim.Bytes // bytes entering compute-node memory
	LegacyNet  sim.Bytes
	LegacyHost sim.Bytes
}

// E6NICCount reproduces Section 4.4's COUNT example: on the smart fabric
// the count completes at the storage tier and only the 8-byte result
// traverses the network; the legacy fabric hauls the column to the host.
func E6NICCount(rows int) (*E6Result, error) {
	cfg := workload.DefaultLineitemConfig(rows)
	data := workload.GenLineitem(cfg)
	q := plan.NewQuery("lineitem").WithCount()

	run := func(smart bool) (*core.Result, error) {
		ccfg := fabric.DefaultClusterConfig()
		if !smart {
			ccfg = fabric.LegacyClusterConfig()
		}
		eng := core.NewDataFlowEngine(fabric.NewCluster(ccfg))
		if err := loadDataFlow(eng, "lineitem", data); err != nil {
			return nil, err
		}
		return eng.Execute(context.Background(), q)
	}
	smart, err := run(true)
	if err != nil {
		return nil, err
	}
	legacy, err := run(false)
	if err != nil {
		return nil, err
	}
	sc := smart.Batches[0].Col(0).Int64s()[0]
	lc := legacy.Batches[0].Col(0).Int64s()[0]
	if sc != lc {
		return nil, fmt.Errorf("experiments: E6 counts disagree (%d vs %d)", sc, lc)
	}
	netLink := "storage.nic--switch"
	hostLinkSmart := "compute0.nic--compute0.dram"
	res := &E6Result{
		Table: &Table{
			ID:     "E6",
			Title:  "COUNT(*) on the data path (Section 4.4)",
			Header: []string{"fabric", "count", "network bytes", "host-memory bytes"},
			Notes:  "smart fabric completes the count at storage; only the result crosses the network",
		},
		Count:      sc,
		SmartNet:   smart.Stats.LinkBytes[netLink],
		SmartHost:  smart.Stats.LinkBytes[hostLinkSmart],
		LegacyNet:  legacy.Stats.LinkBytes[netLink],
		LegacyHost: legacy.Stats.LinkBytes[hostLinkSmart],
	}
	res.Table.AddRow("smart", d(sc), res.SmartNet.String(), res.SmartHost.String())
	res.Table.AddRow("legacy", d(lc), res.LegacyNet.String(), res.LegacyHost.String())
	return res, nil
}
