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

// E3Row is one hashing variant of the Figure 3 pipeline.
type E3Row struct {
	Variant    string    `col:"variant"`
	CPUBusy    sim.VTime `col:"cpu busy"` // compute-CPU busy
	NICBusy    sim.VTime `col:"nic busy"`
	RowsHashed int       `col:"rows hashed"`
}

// E3Result carries the Figure 3 pipeline measurements: hash@nic, then
// hash@cpu.
type E3Result struct {
	Result[E3Row]
	HashesAgree bool
}

// E3NICHashPipeline reproduces Figure 3: a streaming pipeline with
// projection at storage and hashing at the receiving NIC, against the
// same plan with hashing on the CPU. The NIC variant leaves the CPU
// almost idle while producing identical hashes.
func E3NICHashPipeline(rows int) (*E3Result, error) {
	cfg := workload.DefaultLineitemConfig(rows)
	data := workload.GenLineitem(cfg)

	res := &E3Result{Result: *newResult[E3Row]("E3", "NIC hashing pipeline (Figure 3): who computes the hash",
		"projection at storage in both variants; hashes verified identical")}

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
	res.HashesAgree = len(hashesNIC) == len(hashesCPU)
	if res.HashesAgree {
		for i := range hashesNIC {
			if hashesNIC[i] != hashesCPU[i] {
				res.HashesAgree = false
				break
			}
		}
	}
	res.put(E3Row{"hash@nic", cpuBusyNIC, nicBusyNIC, len(hashesNIC)})
	res.put(E3Row{"hash@cpu", cpuBusyCPU, nicBusyCPU, len(hashesCPU)})
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
	Groups       int64     `col:"groups"`
	RowsIntoCPU  int64     `col:"rows->cpu full-offload"` // partial rows the CPU has to merge
	RowsIntoCPU0 int64     `col:"rows->cpu cpu-only"`     // rows the CPU consumes with no offload
	NetBytesFull sim.Bytes `col:"net full"`
	NetBytesNone sim.Bytes `col:"net none"`
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
	res := &E4Result{Result: *newResult[E4Row]("E4",
		"Staged pre-aggregation (Section 4.4): rows reaching the CPU vs group count",
		"pre-aggregation at storage + both NICs; accuracy is exact (partials merge associatively)")}
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
		res.put(E4Row{
			Groups:       int64(fullRes.Rows()),
			RowsIntoCPU:  cpuRowsConsumed(fullRes),
			RowsIntoCPU0: cpuRowsConsumed(cpuRes),
			NetBytesFull: fullRes.Stats.LinkBytes[netLink],
			NetBytesNone: cpuRes.Stats.LinkBytes[netLink],
		})
	}
	return res, nil
}

// cpuRowsConsumed derives the rows the compute CPU had to ingest from
// its byte meter (16B per kv row raw; partial rows are wider but far
// fewer). We report bytes/8 as a row-equivalent to stay unit-consistent.
func cpuRowsConsumed(r *core.Result) int64 {
	return int64(r.Stats.CPUBytes) / 16
}

// E5Row is one scatter device of the distributed-join comparison.
type E5Row struct {
	Scatter      string    `col:"scatter"`
	Rows         int64     `col:"joined rows"`
	CPUBytes     sim.Bytes `col:"cpu bytes"` // bytes the CPUs touched
	ScatterBytes sim.Bytes `col:"scatter-device bytes"`
	Skew         slash     `col:"probe skew max/min"`
}

// E5PartitionedJoin reproduces Figure 4: the NIC-executed scattering
// pipeline for a distributed partitioned hash join relieves the CPUs of
// all exchange work. Both joins run under ctx.
func E5PartitionedJoin(ctx context.Context, buildRows, probeRows, nodes int) (*Result[E5Row], error) {
	build := []*columnar.Batch{workload.GenKV(workload.KVConfig{Rows: buildRows, Keys: int64(buildRows), Seed: 3})}
	probe := []*columnar.Batch{workload.GenKV(workload.KVConfig{Rows: probeRows, Keys: int64(buildRows) * 2, Seed: 4})}

	run := func(onNIC bool) (E5Row, error) {
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
		row := E5Row{Scatter: "nic", Rows: r.Rows, CPUBytes: r.CPUBytes, ScatterBytes: r.ScatterBytes,
			Skew: slash{r.SkewMax, r.SkewMin}}
		if !onNIC {
			row.Scatter = "cpu"
			row.CPUBytes += r.ScatterBytes // the scatter ran on a CPU
		}
		return row, err
	}

	res := newResult[E5Row]("E5", fmt.Sprintf("Distributed partitioned join (Figure 4), %d nodes", nodes),
		"NIC scatter removes the exchange from the CPUs entirely")
	for _, onNIC := range []bool{true, false} {
		row, err := run(onNIC)
		if err != nil {
			return nil, err
		}
		res.put(row)
	}
	if nic, cpu := res.Rows[0], res.Rows[1]; nic.Rows != cpu.Rows {
		return nil, fmt.Errorf("experiments: E5 modes disagree (%d vs %d rows)", nic.Rows, cpu.Rows)
	}
	return res, nil
}

// E6Row is one fabric of the NIC-count comparison.
type E6Row struct {
	Fabric string    `col:"fabric"`
	Count  int64     `col:"count"`
	Net    sim.Bytes `col:"network bytes"`
	Host   sim.Bytes `col:"host-memory bytes"` // bytes entering compute-node memory
}

// E6NICCount reproduces Section 4.4's COUNT example: on the smart fabric
// the count completes at the storage tier and only the 8-byte result
// traverses the network; the legacy fabric hauls the column to the host.
func E6NICCount(rows int) (*Result[E6Row], error) {
	cfg := workload.DefaultLineitemConfig(rows)
	data := workload.GenLineitem(cfg)
	q := plan.NewQuery("lineitem").WithCount()

	res := newResult[E6Row]("E6", "COUNT(*) on the data path (Section 4.4)",
		"smart fabric completes the count at storage; only the result crosses the network")
	for _, fab := range []string{"smart", "legacy"} {
		ccfg := fabric.DefaultClusterConfig()
		if fab == "legacy" {
			ccfg = fabric.LegacyClusterConfig()
		}
		eng := core.NewDataFlowEngine(fabric.NewCluster(ccfg))
		if err := loadDataFlow(eng, "lineitem", data); err != nil {
			return nil, err
		}
		r, err := eng.Execute(context.Background(), q)
		if err != nil {
			return nil, err
		}
		res.put(E6Row{Fabric: fab, Count: r.Batches[0].Col(0).Int64s()[0],
			Net:  r.Stats.LinkBytes["storage.nic--switch"],
			Host: r.Stats.LinkBytes["compute0.nic--compute0.dram"]})
	}
	if sc, lc := res.Rows[0].Count, res.Rows[1].Count; sc != lc {
		return nil, fmt.Errorf("experiments: E6 counts disagree (%d vs %d)", sc, lc)
	}
	return res, nil
}
