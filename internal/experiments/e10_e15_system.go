package experiments

import (
	"context"
	"fmt"

	"repro/internal/columnar"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/flow"
	"repro/internal/plan"
	"repro/internal/sim"
	"repro/internal/workload"
)

// E10Row is one execution model of the full-pipeline comparison.
type E10Row struct {
	Engine     string    `col:"engine"`
	MovedBytes sim.Bytes `col:"moved"`
	CPUBytes   sim.Bytes `col:"cpu bytes"`
	CPUBusy    sim.VTime `col:"cpu busy"`
	SimTime    sim.VTime `col:"makespan"`
	PeakMemory sim.Bytes `col:"peak memory"`
}

// E10FullPipeline reproduces Figure 6: one query (filtered group-by)
// executed three ways — the full data-path pipeline, the same engine
// with all work on the CPU, and the Volcano baseline with a buffer pool.
func E10FullPipeline(rows int) (*Result[E10Row], error) {
	cfg := workload.DefaultLineitemConfig(rows)
	data := workload.GenLineitem(cfg)
	q := plan.NewQuery("lineitem").
		WithFilter(workload.SelectivityFilter(cfg, 0.1)).
		WithGroupBy(workload.PricingSummary())

	df := core.NewDataFlowEngine(fabric.NewCluster(fabric.DefaultClusterConfig()))
	if err := loadDataFlow(df, "lineitem", data); err != nil {
		return nil, err
	}
	fullRes, err := runNamed(df, q, "full-offload")
	if err != nil {
		return nil, err
	}
	cpuRes, err := runNamed(df, q, "cpu-only")
	if err != nil {
		return nil, err
	}

	vo := core.NewVolcanoEngine(fabric.NewCluster(fabric.LegacyClusterConfig()), 512*sim.MB)
	if err := loadVolcano(vo, "lineitem", data); err != nil {
		return nil, err
	}
	voRes, err := vo.Execute(context.Background(), q)
	if err != nil {
		return nil, err
	}
	if fullRes.Rows() != voRes.Rows() || cpuRes.Rows() != voRes.Rows() {
		return nil, fmt.Errorf("experiments: E10 engines disagree")
	}

	res := newResult[E10Row]("E10", "Full data-path pipeline (Figure 6): filtered group-by, three execution models", "")
	for _, e := range []struct {
		name string
		st   core.ExecStats
	}{
		{"dataflow full-offload", fullRes.Stats},
		{"dataflow cpu-only", cpuRes.Stats},
		{"volcano + bufferpool", voRes.Stats},
	} {
		res.put(E10Row{e.name, e.st.MovedBytes, e.st.CPUBytes, e.st.CPUBusy, e.st.SimTime, e.st.PeakMemory})
	}
	return res, nil
}

// E11Row is one credit-configuration point.
type E11Row struct {
	Depth       int     `col:"depth"`
	CreditBatch int     `col:"credit batch"`
	DataMsgs    int64   `col:"data msgs"`
	CreditMsgs  int64   `col:"credit msgs"`
	Overhead    float64 `col:"credit/data"`
}

// E11CreditFlow reproduces Section 7.1: credit-based flow control is
// "easy to implement and low traffic" — the credit counter-stream stays
// a small fraction of the data stream across queue configurations while
// still bounding in-flight data.
func E11CreditFlow(batches int) (*Result[E11Row], error) {
	res := newResult[E11Row]("E11", "Credit-based flow control (Section 7.1): control traffic vs queue configuration", "")
	schema := workload.KVSchema()
	for _, depth := range []int{2, 4, 8, 16, 32} {
		creditBatch := max(depth/2, 1) // the batch a port of this depth returns credits in
		pipe := &flow.Pipeline{
			Name: "e11",
			Source: func(emit flow.Emit) error {
				for i := 0; i < batches; i++ {
					b := columnar.BatchOf(schema,
						columnar.FromInt64s([]int64{int64(i)}),
						columnar.FromInt64s([]int64{int64(i)}))
					if err := emit(b); err != nil {
						return err
					}
				}
				return nil
			},
			Stages: []flow.Placed{{Stage: passthrough{}}, {Stage: passthrough{}}},
			Depth:  depth,
		}
		fr, err := pipe.Run(context.Background(), func(*columnar.Batch) error { return nil })
		if err != nil {
			return nil, err
		}
		row := E11Row{
			Depth:       depth,
			CreditBatch: creditBatch,
			DataMsgs:    fr.TotalDataMessages(),
			CreditMsgs:  fr.TotalCreditMessages(),
		}
		if row.DataMsgs > 0 {
			row.Overhead = float64(row.CreditMsgs) / float64(row.DataMsgs)
		}
		res.put(row)
	}
	return res, nil
}

// E12Row is one placement policy of the interference comparison: naive
// (both queries forced onto one node, no limits), then scheduled
// (scheduler steering + fair sharing).
type E12Row struct {
	Policy     string    `col:"policy"`
	Makespan   sim.VTime `col:"combined makespan"`
	Placement1 string    `col:"placement 1"`
	Placement2 string    `col:"placement 2"`
}

// E12Interference reproduces Section 7.3: two concurrent plans contending
// for one node's path lose throughput; a scheduler with plan variants
// steers the second onto the other compute node and rate-limits shared
// links, improving the combined makespan.
func E12Interference(rows int) (*Result[E12Row], error) {
	cfg := workload.DefaultLineitemConfig(rows)
	data := workload.GenLineitem(cfg)
	q := plan.NewQuery("lineitem").
		WithFilter(workload.SelectivityFilter(cfg, 0.3)).
		WithGroupBy(workload.PricingSummary())

	runPair := func(useScheduler bool) (E12Row, error) {
		row := E12Row{Policy: "naive"}
		eng := core.NewDataFlowEngine(fabric.NewCluster(fabric.DefaultClusterConfig()))
		if err := loadDataFlow(eng, "lineitem", data); err != nil {
			return row, err
		}
		if useScheduler {
			row.Policy = "scheduled"
			// Candidates span both compute nodes; the scheduler steers.
			var lists [2][]*plan.Physical
			for node := 0; node < 2; node++ {
				vs, err := eng.Plan(q, node)
				if err != nil {
					return row, err
				}
				lists[node] = vs
			}
			s := eng.Scheduler
			s.ContentionPenalty = 5
			adm1, err := s.Admit(context.Background(), append(append([]*plan.Physical{}, lists[0]...), lists[1]...))
			if err != nil {
				return row, err
			}
			adm2, err := s.Admit(context.Background(), append(append([]*plan.Physical{}, lists[0]...), lists[1]...))
			if err != nil {
				return row, err
			}
			r1, err := eng.ExecutePlan(context.Background(), adm1.Plan)
			if err != nil {
				return row, err
			}
			r2, err := eng.ExecutePlan(context.Background(), adm2.Plan)
			if err != nil {
				return row, err
			}
			s.Release(adm1)
			s.Release(adm2)
			row.Placement1 = adm1.Plan.Path.CPU().Name + "/" + adm1.Variant
			row.Placement2 = adm2.Plan.Path.CPU().Name + "/" + adm2.Variant
			row.Makespan = max(r1.Stats.SimTime, r2.Stats.SimTime)
		} else {
			// Naive: both on node 0's top-ranked plan; the shared path
			// serializes, so the combined makespan is the sum.
			vs, err := eng.Plan(q, 0)
			if err != nil {
				return row, err
			}
			r1, err := eng.ExecutePlan(context.Background(), vs[0])
			if err != nil {
				return row, err
			}
			r2, err := eng.ExecutePlan(context.Background(), vs[0])
			if err != nil {
				return row, err
			}
			row.Placement1 = vs[0].Path.CPU().Name + "/" + vs[0].Variant
			row.Placement2 = row.Placement1
			row.Makespan = r1.Stats.SimTime + r2.Stats.SimTime
		}
		return row, nil
	}

	res := newResult[E12Row]("E12", "Interference and scheduling (Section 7.3): two concurrent plans",
		"naive co-location serializes on the shared node; the scheduler spreads across nodes")
	for _, useScheduler := range []bool{false, true} {
		row, err := runPair(useScheduler)
		if err != nil {
			return nil, err
		}
		res.put(row)
	}
	return res, nil
}

// E13Row is one table-size point of the memory-footprint sweep.
type E13Row struct {
	Rows        int       `col:"rows"`
	DataBytes   sim.Bytes `col:"table bytes"`
	DataflowMem sim.Bytes `col:"dataflow peak"`
	VolcanoMem  sim.Bytes `col:"volcano peak"`
	VolcanoHit  float64   `col:"volcano hit rate,%.2f"`
}

// E13NoBufferPool reproduces Section 7.4: the data-flow engine's
// compute-side memory stays flat as tables grow (stateless compute),
// while the buffer-pool engine's footprint tracks the data and thrashes
// once the working set exceeds the pool.
func E13NoBufferPool(sizes []int, poolBytes sim.Bytes) (*Result[E13Row], error) {
	res := newResult[E13Row]("E13", "No more buffer pools (Section 7.4): compute-side memory vs table size",
		fmt.Sprintf("volcano pool capacity %s; dataflow holds only in-flight batches + aggregate state", poolBytes))
	q := func() *plan.Query {
		return plan.NewQuery("lineitem").WithGroupBy(workload.PricingSummary())
	}
	for _, rows := range sizes {
		cfg := workload.DefaultLineitemConfig(rows)
		data := workload.GenLineitem(cfg)

		df := core.NewDataFlowEngine(fabric.NewCluster(fabric.DefaultClusterConfig()))
		if err := loadDataFlow(df, "lineitem", data); err != nil {
			return nil, err
		}
		dfRes, err := df.Execute(context.Background(), q())
		if err != nil {
			return nil, err
		}

		vo := core.NewVolcanoEngine(fabric.NewCluster(fabric.LegacyClusterConfig()), poolBytes)
		if err := loadVolcano(vo, "lineitem", data); err != nil {
			return nil, err
		}
		// Two passes: the second shows whether the pool holds the
		// working set or thrashes.
		if _, err := vo.Execute(context.Background(), q()); err != nil {
			return nil, err
		}
		voRes, err := vo.Execute(context.Background(), q())
		if err != nil {
			return nil, err
		}
		res.put(E13Row{
			Rows:        rows,
			DataBytes:   sim.Bytes(data.ByteSize()),
			DataflowMem: dfRes.Stats.PeakMemory,
			VolcanoMem:  voRes.Stats.PeakMemory,
			VolcanoHit:  vo.Pool.Stats().HitRate(),
		})
	}
	return res, nil
}

// E14Row is one pass of the cache-elimination comparison: volcano cold,
// volcano warm, then two dataflow passes.
type E14Row struct {
	Pass     string    `col:"engine/pass"`
	Makespan sim.VTime `col:"makespan"`
	Cache    sim.Bytes `col:"cache memory held"`
}

// E14NoDataCache reproduces Section 7.5: a caching engine is fast only
// after paying the cold pass and holding the cache in memory; the active
// pipeline's cost is flat across passes with no cache footprint, because
// only the needed bytes ever move.
func E14NoDataCache(rows int) (*Result[E14Row], error) {
	cfg := workload.DefaultLineitemConfig(rows)
	data := workload.GenLineitem(cfg)
	q := plan.NewQuery("lineitem").
		WithFilter(workload.SelectivityFilter(cfg, 0.05)).
		WithProjection(workload.LExtendedPrice)

	vo := core.NewVolcanoEngine(fabric.NewCluster(fabric.LegacyClusterConfig()), 512*sim.MB)
	if err := loadVolcano(vo, "lineitem", data); err != nil {
		return nil, err
	}
	cold, err := vo.Execute(context.Background(), q)
	if err != nil {
		return nil, err
	}
	warm, err := vo.Execute(context.Background(), q)
	if err != nil {
		return nil, err
	}

	df := core.NewDataFlowEngine(fabric.NewCluster(fabric.DefaultClusterConfig()))
	if err := loadDataFlow(df, "lineitem", data); err != nil {
		return nil, err
	}
	dfRes, err := df.Execute(context.Background(), q)
	if err != nil {
		return nil, err
	}
	dfRes2, err := df.Execute(context.Background(), q)
	if err != nil {
		return nil, err
	}

	res := newResult[E14Row]("E14", "No more data caches (Section 7.5): repeated selective scan",
		"the pipeline's cost is flat across passes with zero cache footprint")
	res.put(E14Row{"volcano cold", cold.Stats.SimTime, 0})
	res.put(E14Row{"volcano warm", warm.Stats.SimTime, vo.Pool.Stats().Resident})
	res.put(E14Row{"dataflow pass1", dfRes.Stats.SimTime, 0})
	res.put(E14Row{"dataflow pass2", dfRes2.Stats.SimTime, 0})
	return res, nil
}

// E15Row is one stream-size point of the kernel-setup experiment.
type E15Row struct {
	StreamBytes sim.Bytes `col:"stream size"`
	Setup       sim.VTime `col:"setup"`
	Stream      sim.VTime `col:"stream time"`
	SetupShare  float64   `col:"setup share,%.4f"`
}

// E15KernelSetup quantifies Section 7.2's point that accelerators are
// programmed through registers/kernel installation rather than an ISA —
// and that this fixed setup cost is immaterial for streaming work.
func E15KernelSetup(sizes []sim.Bytes) (*Result[E15Row], error) {
	res := newResult[E15Row]("E15", "Kernel installation overhead (Section 7.2) on a smart NIC",
		"setup cost is fixed per kernel; its share vanishes as streams grow")
	for _, size := range sizes {
		nic := fabric.NewSmartNIC("nic", sim.GbitPerSec(400))
		setup := nic.ChargeSetup()
		stream := nic.Charge(fabric.OpFilter, size)
		res.put(E15Row{size, setup, stream, float64(setup) / float64(setup+stream)})
	}
	return res, nil
}
