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

// A5Row is one node-count point of the scale-out ablation.
type A5Row struct {
	Nodes      int       `col:"nodes"`
	Groups     int64     `col:"groups"`
	MaxCPUBusy sim.VTime `col:"busiest cpu"` // busiest compute node
	Makespan   sim.VTime `col:"makespan"`
}

// A5ScaleOut sweeps the distributed group-by (the Figure 4 pipeline
// applied to aggregation) over node counts: the NIC-scattered exchange
// lets per-node CPU work shrink with the node count, the scale-out story
// the paper's rack-scale discussion (Section 6.4) assumes.
func A5ScaleOut(rows int, nodeCounts []int) (*Result[A5Row], error) {
	data := workload.GenKV(workload.KVConfig{Rows: rows, Keys: int64(rows) / 4, Seed: 37})
	res := newResult[A5Row]("A5", "Ablation: distributed group-by scale-out (Figure 4 applied to aggregation)",
		"NIC-scattered partitioned aggregation; results identical at every width")
	var wantGroups int64 = -1
	for _, n := range nodeCounts {
		ccfg := fabric.DefaultClusterConfig()
		ccfg.ComputeNodes = n
		eng := core.NewDataFlowEngine(fabric.NewCluster(ccfg))
		if err := loadDataFlow(eng, "kv", data); err != nil {
			return nil, err
		}
		q := plan.NewQuery("kv").WithGroupBy(workload.KVGroupBy())
		r, err := eng.ExecuteGroupByDistributed(context.Background(), q, n)
		if err != nil {
			return nil, err
		}
		if wantGroups == -1 {
			wantGroups = r.Rows()
		} else if r.Rows() != wantGroups {
			return nil, fmt.Errorf("experiments: A5 group count changed at %d nodes", n)
		}
		var maxBusy sim.VTime
		for i := 0; i < n; i++ {
			if b := r.Stats.DeviceBusy[fabric.ComputeDev(i, "cpu")]; b > maxBusy {
				maxBusy = b
			}
		}
		res.put(A5Row{Nodes: n, Groups: r.Rows(), MaxCPUBusy: maxBusy, Makespan: r.Stats.SimTime})
	}
	return res, nil
}
