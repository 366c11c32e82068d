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

// E10Result carries the full-pipeline comparison.
type E10Result struct {
	*Table
	DataFlow core.ExecStats
	CPUOnly  core.ExecStats
	Volcano  core.ExecStats
}

// E10FullPipeline reproduces Figure 6: one query (filtered group-by)
// executed three ways — the full data-path pipeline, the same engine
// with all work on the CPU, and the Volcano baseline with a buffer pool.
func E10FullPipeline(rows int) (*E10Result, error) {
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

	t := &Table{
		ID:     "E10",
		Title:  "Full data-path pipeline (Figure 6): filtered group-by, three execution models",
		Header: []string{"engine", "moved", "cpu bytes", "cpu busy", "makespan", "peak memory"},
	}
	for _, e := range []struct {
		name string
		st   core.ExecStats
	}{
		{"dataflow full-offload", fullRes.Stats},
		{"dataflow cpu-only", cpuRes.Stats},
		{"volcano + bufferpool", voRes.Stats},
	} {
		t.AddRow(e.name, e.st.MovedBytes.String(), e.st.CPUBytes.String(),
			e.st.CPUBusy.String(), e.st.SimTime.String(), e.st.PeakMemory.String())
	}
	return &E10Result{Table: t, DataFlow: fullRes.Stats, CPUOnly: cpuRes.Stats, Volcano: voRes.Stats}, nil
}

// E11Row is one credit-configuration point.
type E11Row struct {
	Depth       int
	CreditBatch int
	DataMsgs    int64
	CreditMsgs  int64
	Overhead    float64
}

// E11CreditFlow reproduces Section 7.1: credit-based flow control is
// "easy to implement and low traffic" — the credit counter-stream stays
// a small fraction of the data stream across queue configurations while
// still bounding in-flight data.
func E11CreditFlow(batches int) (*Result[E11Row], error) {
	res := &Result[E11Row]{Table: &Table{
		ID:     "E11",
		Title:  "Credit-based flow control (Section 7.1): control traffic vs queue configuration",
		Header: []string{"depth", "credit batch", "data msgs", "credit msgs", "credit/data"},
	}}
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
		res.add(row, d(int64(depth)), d(int64(creditBatch)),
			d(row.DataMsgs), d(row.CreditMsgs), f(row.Overhead))
	}
	return res, nil
}

// E12Result carries the interference comparison.
type E12Result struct {
	*Table
	NaiveTime     sim.VTime // both queries forced onto one node, no limits
	ScheduledTime sim.VTime // scheduler steering + fair sharing
	NaiveVariants [2]string
	SchedVariants [2]string
}

// E12Interference reproduces Section 7.3: two concurrent plans contending
// for one node's path lose throughput; a scheduler with plan variants
// steers the second onto the other compute node and rate-limits shared
// links, improving the combined makespan.
func E12Interference(rows int) (*E12Result, error) {
	cfg := workload.DefaultLineitemConfig(rows)
	data := workload.GenLineitem(cfg)
	q := plan.NewQuery("lineitem").
		WithFilter(workload.SelectivityFilter(cfg, 0.3)).
		WithGroupBy(workload.PricingSummary())

	runPair := func(useScheduler bool) (sim.VTime, [2]string, error) {
		eng := core.NewDataFlowEngine(fabric.NewCluster(fabric.DefaultClusterConfig()))
		if err := loadDataFlow(eng, "lineitem", data); err != nil {
			return 0, [2]string{}, err
		}
		var variants [2]string
		var total sim.VTime
		if useScheduler {
			// Candidates span both compute nodes; the scheduler steers.
			var lists [2][]*plan.Physical
			for node := 0; node < 2; node++ {
				vs, err := eng.Plan(q, node)
				if err != nil {
					return 0, variants, err
				}
				lists[node] = vs
			}
			s := eng.Scheduler
			s.ContentionPenalty = 5
			adm1, err := s.Admit(context.Background(), append(append([]*plan.Physical{}, lists[0]...), lists[1]...))
			if err != nil {
				return 0, variants, err
			}
			adm2, err := s.Admit(context.Background(), append(append([]*plan.Physical{}, lists[0]...), lists[1]...))
			if err != nil {
				return 0, variants, err
			}
			r1, err := eng.ExecutePlan(context.Background(), adm1.Plan)
			if err != nil {
				return 0, variants, err
			}
			r2, err := eng.ExecutePlan(context.Background(), adm2.Plan)
			if err != nil {
				return 0, variants, err
			}
			s.Release(adm1)
			s.Release(adm2)
			variants[0] = adm1.Plan.Path.CPU().Name + "/" + adm1.Variant
			variants[1] = adm2.Plan.Path.CPU().Name + "/" + adm2.Variant
			if r1.Stats.SimTime > r2.Stats.SimTime {
				total = r1.Stats.SimTime
			} else {
				total = r2.Stats.SimTime
			}
		} else {
			// Naive: both on node 0's top-ranked plan; the shared path
			// serializes, so the combined makespan is the sum.
			vs, err := eng.Plan(q, 0)
			if err != nil {
				return 0, variants, err
			}
			r1, err := eng.ExecutePlan(context.Background(), vs[0])
			if err != nil {
				return 0, variants, err
			}
			r2, err := eng.ExecutePlan(context.Background(), vs[0])
			if err != nil {
				return 0, variants, err
			}
			variants[0] = vs[0].Path.CPU().Name + "/" + vs[0].Variant
			variants[1] = variants[0]
			total = r1.Stats.SimTime + r2.Stats.SimTime
		}
		return total, variants, nil
	}

	naive, nv, err := runPair(false)
	if err != nil {
		return nil, err
	}
	scheduled, sv, err := runPair(true)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "E12",
		Title:  "Interference and scheduling (Section 7.3): two concurrent plans",
		Header: []string{"policy", "combined makespan", "placement 1", "placement 2"},
		Notes:  "naive co-location serializes on the shared node; the scheduler spreads across nodes",
	}
	t.AddRow("naive", naive.String(), nv[0], nv[1])
	t.AddRow("scheduled", scheduled.String(), sv[0], sv[1])
	return &E12Result{Table: t, NaiveTime: naive, ScheduledTime: scheduled, NaiveVariants: nv, SchedVariants: sv}, nil
}

// E13Row is one table-size point of the memory-footprint sweep.
type E13Row struct {
	Rows        int
	DataBytes   sim.Bytes
	DataflowMem sim.Bytes
	VolcanoMem  sim.Bytes
	VolcanoHit  float64
}

// E13NoBufferPool reproduces Section 7.4: the data-flow engine's
// compute-side memory stays flat as tables grow (stateless compute),
// while the buffer-pool engine's footprint tracks the data and thrashes
// once the working set exceeds the pool.
func E13NoBufferPool(sizes []int, poolBytes sim.Bytes) (*Result[E13Row], error) {
	res := &Result[E13Row]{Table: &Table{
		ID:     "E13",
		Title:  "No more buffer pools (Section 7.4): compute-side memory vs table size",
		Header: []string{"rows", "table bytes", "dataflow peak", "volcano peak", "volcano hit rate"},
		Notes:  fmt.Sprintf("volcano pool capacity %s; dataflow holds only in-flight batches + aggregate state", poolBytes),
	}}
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
		row := E13Row{
			Rows:        rows,
			DataBytes:   sim.Bytes(data.ByteSize()),
			DataflowMem: dfRes.Stats.PeakMemory,
			VolcanoMem:  voRes.Stats.PeakMemory,
			VolcanoHit:  vo.Pool.Stats().HitRate(),
		}
		res.add(row, d(int64(rows)), row.DataBytes.String(),
			row.DataflowMem.String(), row.VolcanoMem.String(),
			fmt.Sprintf("%.2f", row.VolcanoHit))
	}
	return res, nil
}

// E14Result carries the cache-elimination comparison.
type E14Result struct {
	*Table
	ColdVolcano sim.VTime
	WarmVolcano sim.VTime
	DataFlow    sim.VTime
	CacheBytes  sim.Bytes
}

// E14NoDataCache reproduces Section 7.5: a caching engine is fast only
// after paying the cold pass and holding the cache in memory; the active
// pipeline's cost is flat across passes with no cache footprint, because
// only the needed bytes ever move.
func E14NoDataCache(rows int) (*E14Result, error) {
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

	t := &Table{
		ID:     "E14",
		Title:  "No more data caches (Section 7.5): repeated selective scan",
		Header: []string{"engine/pass", "makespan", "cache memory held"},
		Notes:  "the pipeline's cost is flat across passes with zero cache footprint",
	}
	cacheBytes := vo.Pool.Stats().Resident
	t.AddRow("volcano cold", cold.Stats.SimTime.String(), "0B")
	t.AddRow("volcano warm", warm.Stats.SimTime.String(), cacheBytes.String())
	t.AddRow("dataflow pass1", dfRes.Stats.SimTime.String(), "0B")
	t.AddRow("dataflow pass2", dfRes2.Stats.SimTime.String(), "0B")
	return &E14Result{
		Table:       t,
		ColdVolcano: cold.Stats.SimTime,
		WarmVolcano: warm.Stats.SimTime,
		DataFlow:    dfRes.Stats.SimTime,
		CacheBytes:  cacheBytes,
	}, nil
}

// E15Row is one stream-size point of the kernel-setup experiment.
type E15Row struct {
	StreamBytes sim.Bytes
	SetupShare  float64
}

// E15KernelSetup quantifies Section 7.2's point that accelerators are
// programmed through registers/kernel installation rather than an ISA —
// and that this fixed setup cost is immaterial for streaming work.
func E15KernelSetup(sizes []sim.Bytes) (*Result[E15Row], error) {
	res := &Result[E15Row]{Table: &Table{
		ID:     "E15",
		Title:  "Kernel installation overhead (Section 7.2) on a smart NIC",
		Header: []string{"stream size", "setup", "stream time", "setup share"},
		Notes:  "setup cost is fixed per kernel; its share vanishes as streams grow",
	}}
	for _, size := range sizes {
		nic := fabric.NewSmartNIC("nic", sim.GbitPerSec(400))
		setup := nic.ChargeSetup()
		stream := nic.Charge(fabric.OpFilter, size)
		share := float64(setup) / float64(setup+stream)
		res.add(E15Row{StreamBytes: size, SetupShare: share},
			size.String(), setup.String(), stream.String(), fmt.Sprintf("%.4f", share))
	}
	return res, nil
}
