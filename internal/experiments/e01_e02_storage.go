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

// E1Result carries the conventional-path measurements for assertions.
type E1Result struct {
	*Table
	TableSize sim.Bytes
	HopBytes  map[string]sim.Bytes
}

// E1ConventionalPath reproduces Figure 1 / Section 2.1: on the von
// Neumann data path every byte of the table crosses every hop
// (disk->memory->cache->CPU) before a single predicate is evaluated,
// regardless of how selective the query is.
func E1ConventionalPath(rows int) (*E1Result, error) {
	cfg := workload.DefaultLineitemConfig(rows)
	data := workload.GenLineitem(cfg)
	size := sim.Bytes(data.ByteSize())

	top := fabric.NewConventionalServer()
	res := &E1Result{
		Table: &Table{
			ID:     "E1",
			Title:  "Conventional data path (Figure 1): bytes per hop, selectivity-independent",
			Header: []string{"selectivity", "disk->dram", "dram->llc", "llc->cpu", "cpu-examined"},
			Notes:  "every hop carries the full table no matter how few rows the query keeps",
		},
		TableSize: size,
		HopBytes:  make(map[string]sim.Bytes),
	}

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

		row := []string{fmt.Sprintf("%.1f%%", sel*100)}
		for _, link := range []string{"disk--dram", "dram--llc", "llc--cpu"} {
			bytes := top.Link(link).Meter.Bytes()
			res.HopBytes[link] = bytes
			row = append(row, bytes.String())
		}
		row = append(row, cpu.Meter.Bytes().String())
		res.Table.AddRow(row...)
	}
	return res, nil
}

// E2Row is one selectivity point of the pushdown experiment.
type E2Row struct {
	Selectivity  float64
	CPUOnlyNet   sim.Bytes
	PushdownNet  sim.Bytes
	Reduction    float64
	CPUOnlyTime  sim.VTime
	PushdownTime sim.VTime
}

// E2Result carries the Figure 2 sweep.
type E2Result struct {
	*Table
	Rows []E2Row
}

// E2StoragePushdown reproduces Figure 2: offloading selection and
// projection to the storage layer cuts network traffic proportionally to
// selectivity x projected width, while the CPU-centric plan ships
// everything.
func E2StoragePushdown(rows int, selectivities []float64) (*E2Result, error) {
	cfg := workload.DefaultLineitemConfig(rows)
	data := workload.GenLineitem(cfg)

	eng := core.NewDataFlowEngine(fabric.NewCluster(fabric.DefaultClusterConfig()))
	if err := loadDataFlow(eng, "lineitem", data); err != nil {
		return nil, err
	}

	res := &E2Result{Table: &Table{
		ID:     "E2",
		Title:  "Storage pushdown (Figure 2): network bytes vs selectivity",
		Header: []string{"selectivity", "cpu-only net", "pushdown net", "reduction", "cpu-only time", "pushdown time"},
		Notes:  "net = bytes on storage.nic--switch; pushdown ships only survivors of selection+projection",
	}}

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
		res.Rows = append(res.Rows, row)
		res.Table.AddRow(
			fmt.Sprintf("%.1f%%", sel*100),
			row.CPUOnlyNet.String(), row.PushdownNet.String(),
			f(row.Reduction)+"x",
			row.CPUOnlyTime.String(), row.PushdownTime.String(),
		)
		res.Table.SetMetric(fmt.Sprintf("reduction@%g", sel), row.Reduction)
	}
	return res, nil
}
