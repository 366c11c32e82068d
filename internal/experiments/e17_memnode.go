package experiments

import (
	"context"
	"fmt"

	"repro/internal/expr"
	"repro/internal/fabric"
	"repro/internal/sim"
	"repro/internal/workload"
)

// E17Row is one selectivity point of the disaggregated-memory sweep.
type E17Row struct {
	Selectivity  float64
	PullBytes    sim.Bytes // network bytes, pull-everything
	OffloadBytes sim.Bytes // network bytes, filter at the memory-side NIC
	PullTime     sim.VTime
	OffloadTime  sim.VTime
	CPUBusyPull  sim.VTime
	CPUBusyOff   sim.VTime
}

// E17DisaggregatedMemory reproduces Section 5.3 (the Farview-style
// scenario the paper cites): a table region resident on a disaggregated
// memory node, consumed by a compute node. Pulling everything over the
// network and filtering at the CPU is compared with offloading the
// filter to the memory-side NIC, which ships only survivors — "by
// starting to execute a query plan near memory, the portion ... that
// needs to be processed by the CPU is greatly reduced".
func E17DisaggregatedMemory(rows int, selectivities []float64) (*Result[E17Row], error) {
	data := workload.GenKV(workload.KVConfig{Rows: rows, Keys: 1000, Seed: 23})
	regionBytes := sim.Bytes(data.ByteSize())

	res := &Result[E17Row]{Table: &Table{
		ID:     "E17",
		Title:  "Disaggregated memory with operator offloading (Section 5.3)",
		Header: []string{"selectivity", "pull net", "offload net", "pull time", "offload time", "cpu busy pull", "cpu busy offload"},
		Notes:  "region resident on the memory node; offload filters at the memory-side NIC",
	}}

	for _, sel := range selectivities {
		hi := int64(float64(1000)*sel) - 1
		if hi < 0 {
			hi = 0
		}
		pred := expr.NewBetween(0, 0, hi)
		survivors := data.Filter(pred.Eval(data))
		survivorBytes := sim.Bytes(survivors.ByteSize())

		run := func(offload bool) (sim.Bytes, sim.VTime, sim.VTime, error) {
			c := fabric.NewCluster(fabric.DefaultClusterConfig())
			cpu := c.ComputeCPU(0)
			memNIC := c.MustDevice(fabric.DevMemNIC)
			net := c.LinkBetween(fabric.DevMemNIC, fabric.DevSwitch)
			var total sim.VTime
			if offload {
				// DRAM -> memory NIC at full controller bandwidth, filter
				// there, survivors onward.
				t, err := c.Transfer(context.Background(), fabric.DevMemNode, fabric.DevMemNIC, regionBytes)
				if err != nil {
					return 0, 0, 0, err
				}
				total += t
				total += memNIC.ChargeSetup()
				total += memNIC.Charge(fabric.OpFilter, regionBytes)
				t, err = c.Transfer(context.Background(), fabric.DevMemNIC, c.ComputeCPU(0).Name, survivorBytes)
				if err != nil {
					return 0, 0, 0, err
				}
				total += t
				total += cpu.Charge(fabric.OpScan, survivorBytes)
			} else {
				// Everything crosses the network; the CPU filters.
				t, err := c.Transfer(context.Background(), fabric.DevMemNode, cpu.Name, regionBytes)
				if err != nil {
					return 0, 0, 0, err
				}
				total += t
				total += cpu.Charge(fabric.OpFilter, regionBytes)
			}
			return net.Meter.Bytes(), total, cpu.Meter.Busy(), nil
		}

		pullNet, pullTime, pullCPU, err := run(false)
		if err != nil {
			return nil, err
		}
		offNet, offTime, offCPU, err := run(true)
		if err != nil {
			return nil, err
		}
		row := E17Row{
			Selectivity: sel,
			PullBytes:   pullNet, OffloadBytes: offNet,
			PullTime: pullTime, OffloadTime: offTime,
			CPUBusyPull: pullCPU, CPUBusyOff: offCPU,
		}
		res.add(row, fmt.Sprintf("%.1f%%", sel*100),
			pullNet.String(), offNet.String(),
			pullTime.String(), offTime.String(),
			pullCPU.String(), offCPU.String())
	}
	return res, nil
}
