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
	Nodes      int
	Groups     int64
	MaxCPUBusy sim.VTime // busiest compute node
	Makespan   sim.VTime
}

// A5ScaleOut sweeps the distributed group-by (the Figure 4 pipeline
// applied to aggregation) over node counts: the NIC-scattered exchange
// lets per-node CPU work shrink with the node count, the scale-out story
// the paper's rack-scale discussion (Section 6.4) assumes.
func A5ScaleOut(rows int, nodeCounts []int) (*Result[A5Row], error) {
	data := workload.GenKV(workload.KVConfig{Rows: rows, Keys: int64(rows) / 4, Seed: 37})
	res := &Result[A5Row]{Table: &Table{
		ID:     "A5",
		Title:  "Ablation: distributed group-by scale-out (Figure 4 applied to aggregation)",
		Header: []string{"nodes", "groups", "busiest cpu", "makespan"},
		Notes:  "NIC-scattered partitioned aggregation; results identical at every width",
	}}
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
		row := A5Row{Nodes: n, Groups: r.Rows(), MaxCPUBusy: maxBusy, Makespan: r.Stats.SimTime}
		res.add(row, d(int64(n)), d(row.Groups), maxBusy.String(), row.Makespan.String())
	}
	return res, nil
}
