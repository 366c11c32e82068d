package experiments

import "repro/internal/sim"

// Experiment is one catalogue entry: what dfbench lists, runs and prints.
type Experiment struct {
	ID   string
	Desc string
	// WallClock marks an experiment whose numbers depend on the wall
	// clock or on goroutine scheduling, so two runs differ; every other
	// experiment's table is byte-identical across runs (CI compares them).
	WallClock bool
	// Run produces the table at the given workload size.
	Run func(rows int, opts Options) (*Table, error)
}

// Options carries the per-experiment options a caller may set (dfbench
// maps its flags onto them). The zero value is every experiment's
// default.
type Options struct {
	E21 E21Options
	// Workers is E22's worker sweep; nil means DefaultWorkers.
	Workers []int
	E24     E24Options
	E25     E25Options
	E26     E26Options
}

// table lets a result stand in for its table: every E*Result embeds
// *Table, so tableOf can take any of them.
func (t *Table) table() *Table { return t }

// tableOf adapts an experiment's (result, error) to the catalogue's
// (table, error).
func tableOf(res interface{ table() *Table }, err error) (*Table, error) {
	if err != nil {
		return nil, err
	}
	return res.table(), nil
}

// Catalogue lists every experiment once, in the order dfbench runs and
// lists them.
var Catalogue = []Experiment{
	{ID: "E1", Desc: "conventional data path (Figure 1)", Run: func(rows int, _ Options) (*Table, error) {
		return tableOf(E1ConventionalPath(rows))
	}},
	{ID: "E2", Desc: "storage pushdown (Figure 2)", Run: func(rows int, _ Options) (*Table, error) {
		return tableOf(E2StoragePushdown(rows, []float64{0.001, 0.01, 0.1, 0.5, 1.0}))
	}},
	{ID: "E3", Desc: "NIC hashing pipeline (Figure 3)", Run: func(rows int, _ Options) (*Table, error) {
		return tableOf(E3NICHashPipeline(rows))
	}},
	{ID: "E4", Desc: "staged pre-aggregation (Section 4.4)", Run: func(rows int, _ Options) (*Table, error) {
		return tableOf(E4StagedPreAgg(rows, []int64{10, 100, 10000, 1000000}))
	}},
	{ID: "E5", Desc: "NIC-scattered partitioned join (Figure 4)", Run: func(rows int, _ Options) (*Table, error) {
		return tableOf(E5PartitionedJoin(rows/10+1, rows, 4))
	}},
	{ID: "E6", Desc: "COUNT on the data path (Section 4.4)", Run: func(rows int, _ Options) (*Table, error) {
		return tableOf(E6NICCount(rows))
	}},
	{ID: "E7", Desc: "near-memory filtering (Figure 5)", Run: func(rows int, _ Options) (*Table, error) {
		return tableOf(E7NearMemoryFilter(rows, []float64{0.001, 0.01, 0.1, 0.5, 1.0}, false))
	}},
	{ID: "E7c", Desc: "near-memory filtering, compressed-resident (Section 5.4)", Run: func(rows int, _ Options) (*Table, error) {
		return tableOf(E7NearMemoryFilter(rows, []float64{0.01, 0.1, 0.5}, true))
	}},
	{ID: "E8", Desc: "pointer chasing, local memory (Section 5.4)", Run: func(int, Options) (*Table, error) {
		return tableOf(E8PointerChase([]int{1000, 100000, 1000000}, false))
	}},
	{ID: "E8r", Desc: "pointer chasing, disaggregated memory (Section 5.4)", Run: func(int, Options) (*Table, error) {
		return tableOf(E8PointerChase([]int{1000, 100000, 1000000}, true))
	}},
	{ID: "E9", Desc: "coherency protocols across interconnects (Section 6)", Run: func(rows int, _ Options) (*Table, error) {
		return tableOf(E9CXLCoherency(rows, 0.1))
	}},
	{ID: "E10", Desc: "full data-path pipeline (Figure 6)", Run: func(rows int, _ Options) (*Table, error) {
		return tableOf(E10FullPipeline(rows))
	}},
	{ID: "E11", Desc: "credit-based flow control (Section 7.1)", Run: func(rows int, _ Options) (*Table, error) {
		return tableOf(E11CreditFlow(rows / 10))
	}},
	{ID: "E12", Desc: "interference-aware scheduling (Section 7.3)", Run: func(rows int, _ Options) (*Table, error) {
		return tableOf(E12Interference(rows))
	}},
	{ID: "E13", Desc: "no more buffer pools (Section 7.4)", Run: func(rows int, _ Options) (*Table, error) {
		return tableOf(E13NoBufferPool([]int{rows / 4, rows / 2, rows}, 2*sim.MB))
	}},
	{ID: "E14", Desc: "no more data caches (Section 7.5)", Run: func(rows int, _ Options) (*Table, error) {
		return tableOf(E14NoDataCache(rows))
	}},
	{ID: "E15", Desc: "kernel installation overhead (Section 7.2)", Run: func(int, Options) (*Table, error) {
		return tableOf(E15KernelSetup([]sim.Bytes{64 * sim.KB, sim.MB, 64 * sim.MB, sim.GB}))
	}},
	{ID: "E16", Desc: "cache and TLB stalls (Section 5.1)", Run: func(int, Options) (*Table, error) {
		return tableOf(E16CacheStalls())
	}},
	{ID: "E17", Desc: "disaggregated memory with operator offloading (Section 5.3)", Run: func(rows int, _ Options) (*Table, error) {
		return tableOf(E17DisaggregatedMemory(rows, []float64{0.001, 0.01, 0.1, 0.5, 1.0}))
	}},
	{ID: "E18", Desc: "HTAP format transposition (Section 5.4)", Run: func(rows int, _ Options) (*Table, error) {
		return tableOf(E18HTAPTranspose([]int{rows / 4, rows, rows * 4}))
	}},
	{ID: "E19", Desc: "availability under injected faults (robustness)", WallClock: true, Run: func(rows int, _ Options) (*Table, error) {
		return tableOf(E19Availability(rows))
	}},
	{ID: "E20", Desc: "staged pipeline overlap from virtual-time traces (Section 4)", Run: func(rows int, _ Options) (*Table, error) {
		return tableOf(E20StageOverlap(rows))
	}},
	{ID: "E21", Desc: "query lifecycle: recovery waste and overload shedding (robustness)", WallClock: true, Run: func(rows int, o Options) (*Table, error) {
		return tableOf(E21Lifecycle(rows, o.E21))
	}},
	{ID: "E22", Desc: "morsel-driven intra-query parallelism: speedup vs workers", Run: func(rows int, o Options) (*Table, error) {
		return tableOf(E22Parallelism(rows, o.Workers))
	}},
	{ID: "E23", Desc: "decode-cost elimination: encoded predicate eval vs eager decode", Run: func(rows int, _ Options) (*Table, error) {
		return tableOf(E23EncodedEval(rows))
	}},
	{ID: "E24", Desc: "tail latency under gray failure: hedged reads + speculation (robustness)", WallClock: true, Run: func(rows int, o Options) (*Table, error) {
		return tableOf(E24TailLatency(rows, o.E24))
	}},
	{ID: "E25", Desc: "fleet telemetry: overhead, histogram accuracy, SLO-led shedding (observability)", WallClock: true, Run: func(rows int, o Options) (*Table, error) {
		return tableOf(E25Telemetry(rows, o.E25))
	}},
	{ID: "E26", Desc: "self-healing storage: scrub + read-repair + re-replication under SLO throttling (robustness)", WallClock: true, Run: func(rows int, o Options) (*Table, error) {
		return tableOf(E26SelfHeal(rows, o.E26))
	}},
	{ID: "A1", Desc: "ablation: wire compression vs network speed", Run: func(rows int, _ Options) (*Table, error) {
		return tableOf(A1WireCompression(rows))
	}},
	{ID: "A2", Desc: "ablation: NIC generation sweep", Run: func(rows int, _ Options) (*Table, error) {
		return tableOf(A2NICTierSweep(rows))
	}},
	{ID: "A3", Desc: "ablation: zone-map pruning vs segment size", Run: func(rows int, _ Options) (*Table, error) {
		return tableOf(A3SegmentSize(rows))
	}},
	{ID: "A4", Desc: "ablation: pre-aggregation state budget", Run: func(rows int, _ Options) (*Table, error) {
		return tableOf(A4StateBudget(rows, int64(rows)/3))
	}},
	{ID: "A5", Desc: "ablation: distributed group-by scale-out", Run: func(rows int, _ Options) (*Table, error) {
		return tableOf(A5ScaleOut(rows, []int{1, 2, 4, 8}))
	}},
}
