package experiments

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/plan"
	"repro/internal/sim"
	"repro/internal/workload"
)

// E1Row is one selectivity point of the conventional data path: the
// bytes each hop carried.
type E1Row struct {
	Selectivity float64   `col:"selectivity,pct"`
	DiskDRAM    sim.Bytes `col:"disk->dram"`
	DRAMLLC     sim.Bytes `col:"dram->llc"`
	LLCCPU      sim.Bytes `col:"llc->cpu"`
	CPUExamined sim.Bytes `col:"cpu-examined"`
	TableSize   sim.Bytes
}

// E1ConventionalPath reproduces Figure 1 / Section 2.1: on the von
// Neumann data path every byte of the table crosses every hop
// (disk->memory->cache->CPU) before a single predicate is evaluated,
// regardless of how selective the query is.
func E1ConventionalPath(rows int) (*Result[E1Row], error) {
	cfg := workload.DefaultLineitemConfig(rows)
	data := workload.GenLineitem(cfg)
	size := sim.Bytes(data.ByteSize())

	top := fabric.NewConventionalServer()
	res := newResult[E1Row]("E1",
		"Conventional data path (Figure 1): bytes per hop, selectivity-independent",
		"every hop carries the full table no matter how few rows the query keeps")

	for _, sel := range []float64{0.001, 0.01, 0.1, 1.0} {
		top.ResetMeters()
		// The legacy engine pulls everything to the CPU, then filters.
		if _, err := top.Transfer(context.Background(), fabric.DevDisk, fabric.DevCPU, size); err != nil {
			return nil, err
		}
		cpu := top.MustDevice(fabric.DevCPU)
		cpu.Charge(fabric.OpFilter, size)
		pred := workload.SelectivityFilter(cfg, sel)
		_ = pred.Eval(data) // the real filtering work, done at the very end

		hop := func(link string) sim.Bytes { return top.Link(link).Meter.Bytes() }
		res.put(E1Row{Selectivity: sel, DiskDRAM: hop("disk--dram"), DRAMLLC: hop("dram--llc"),
			LLCCPU: hop("llc--cpu"), CPUExamined: cpu.Meter.Bytes(), TableSize: size})
	}
	return res, nil
}

// E2Row is one selectivity point of the pushdown experiment.
type E2Row struct {
	Selectivity  float64   `col:"selectivity,pct"`
	CPUOnlyNet   sim.Bytes `col:"cpu-only net"`
	PushdownNet  sim.Bytes `col:"pushdown net"`
	Reduction    float64   `col:"reduction,%.3gx"`
	CPUOnlyTime  sim.VTime `col:"cpu-only time"`
	PushdownTime sim.VTime `col:"pushdown time"`
}

// E2StoragePushdown reproduces Figure 2: offloading selection and
// projection to the storage layer cuts network traffic proportionally to
// selectivity x projected width, while the CPU-centric plan ships
// everything.
func E2StoragePushdown(rows int, selectivities []float64) (*Result[E2Row], error) {
	cfg := workload.DefaultLineitemConfig(rows)
	data := workload.GenLineitem(cfg)

	eng := core.NewDataFlowEngine(fabric.NewCluster(fabric.DefaultClusterConfig()))
	if err := loadDataFlow(eng, "lineitem", data); err != nil {
		return nil, err
	}

	res := newResult[E2Row]("E2", "Storage pushdown (Figure 2): network bytes vs selectivity",
		"net = bytes on storage.nic--switch; pushdown ships only survivors of selection+projection")

	netLink := "storage.nic--switch"
	for _, sel := range selectivities {
		q := plan.NewQuery("lineitem").
			WithFilter(workload.SelectivityFilter(cfg, sel)).
			WithProjection(workload.LOrderKey, workload.LExtendedPrice)
		cpuRes, err := runNamed(eng, q, "cpu-only")
		if err != nil {
			return nil, err
		}
		pdRes, err := runNamed(eng, q, "storage-pushdown", "full-offload")
		if err != nil {
			return nil, err
		}
		if cpuRes.Rows() != pdRes.Rows() {
			return nil, fmt.Errorf("experiments: E2 variants disagree (%d vs %d rows)", cpuRes.Rows(), pdRes.Rows())
		}
		row := E2Row{
			Selectivity:  sel,
			CPUOnlyNet:   cpuRes.Stats.LinkBytes[netLink],
			PushdownNet:  pdRes.Stats.LinkBytes[netLink],
			CPUOnlyTime:  cpuRes.Stats.SimTime,
			PushdownTime: pdRes.Stats.SimTime,
		}
		if row.PushdownNet > 0 {
			row.Reduction = float64(row.CPUOnlyNet) / float64(row.PushdownNet)
		}
		res.put(row)
		res.Table.SetMetric(fmt.Sprintf("reduction@%g", sel), row.Reduction)
	}
	return res, nil
}
