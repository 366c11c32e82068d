package experiments

import (
	"context"
	"strings"
	"testing"

	"repro/internal/sim"
)

// The tests below assert the qualitative shapes the paper predicts —
// who wins, in which direction the curves move — on small instances.
// The benchmarks in the repository root run the same experiments at
// larger scale.

func TestE1AllBytesCrossEveryHop(t *testing.T) {
	res, err := E1ConventionalPath(5000)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Table.Rows) != 4 {
		t.Fatalf("rows = %d", len(res.Table.Rows))
	}
	for _, hop := range []string{"disk--dram", "dram--llc", "llc--cpu"} {
		if res.HopBytes[hop] < res.TableSize {
			t.Errorf("hop %s carried %v < table size %v", hop, res.HopBytes[hop], res.TableSize)
		}
	}
	// Selectivity column must not change the hop bytes: all rows equal.
	first := res.Table.Rows[0][1]
	for _, row := range res.Table.Rows[1:] {
		if row[1] != first {
			t.Error("hop bytes vary with selectivity on the conventional path")
		}
	}
}

func TestE2ReductionTracksSelectivity(t *testing.T) {
	res, err := E2StoragePushdown(20000, []float64{0.01, 0.1, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	prev := res.Rows[0]
	if prev.Reduction < 10 {
		t.Errorf("1%% selectivity reduction = %.1fx, want >= 10x", prev.Reduction)
	}
	for _, row := range res.Rows[1:] {
		if row.Reduction > prev.Reduction {
			t.Errorf("reduction grew with selectivity: %.1fx after %.1fx", row.Reduction, prev.Reduction)
		}
		prev = row
	}
	// Pushdown must always ship less.
	for _, row := range res.Rows {
		if row.PushdownNet >= row.CPUOnlyNet {
			t.Errorf("sel %.2f: pushdown %v >= cpu-only %v", row.Selectivity, row.PushdownNet, row.CPUOnlyNet)
		}
	}
}

func TestE3NICHashingRelievesCPU(t *testing.T) {
	res, err := E3NICHashPipeline(20000)
	if err != nil {
		t.Fatal(err)
	}
	if !res.HashesAgree {
		t.Fatal("NIC and CPU hashing disagree")
	}
	if res.CPUBusyNIC >= res.CPUBusyCPU {
		t.Errorf("CPU busy with NIC hashing %v >= with CPU hashing %v", res.CPUBusyNIC, res.CPUBusyCPU)
	}
}

func TestE4CPURowsTrackGroupsNotTable(t *testing.T) {
	res, err := E4StagedPreAgg(30000, []int64{10, 1000, 100000})
	if err != nil {
		t.Fatal(err)
	}
	// With offload, rows into the CPU track group count; without, they
	// stay at table cardinality.
	lo, hi := res.Rows[0], res.Rows[len(res.Rows)-1]
	if lo.RowsIntoCPU >= lo.RowsIntoCPU0 {
		t.Errorf("10 groups: offload CPU rows %d >= cpu-only %d", lo.RowsIntoCPU, lo.RowsIntoCPU0)
	}
	// Low cardinality: staged pre-aggregation slashes network bytes.
	if lo.NetBytesFull*4 >= lo.NetBytesNone {
		t.Errorf("10 groups: offload net %v not ≪ none %v", lo.NetBytesFull, lo.NetBytesNone)
	}
	// High cardinality (groups ≈ rows): partial rows are wider than raw
	// rows, so the crossover the paper's "only to parts of the data"
	// caveat (Section 3.3) predicts must appear.
	if hi.NetBytesFull <= hi.NetBytesNone {
		t.Errorf("groups≈rows: expected pre-aggregation to lose (%v vs %v)", hi.NetBytesFull, hi.NetBytesNone)
	}
}

func TestE4OptimizerPredictsCrossover(t *testing.T) {
	res, err := E4StagedPreAgg(30000, []int64{10, 100000})
	if err != nil {
		t.Fatal(err)
	}
	if res.ChosenLow == "cpu-only" {
		t.Errorf("optimizer refused pre-aggregation at 10 groups")
	}
	if res.ChosenHigh == "full-offload" {
		t.Errorf("optimizer chose full-offload at groups≈rows despite wider partials")
	}
}

func TestE5NICScatterRelievesCPUs(t *testing.T) {
	res, err := E5PartitionedJoin(context.Background(), 2000, 20000, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.NICMode.Rows != res.CPUMode.Rows {
		t.Fatal("join modes disagree")
	}
	if res.NICCPUBy >= res.CPUCPUBy {
		t.Errorf("NIC-scatter CPU bytes %v >= CPU-scatter %v", res.NICCPUBy, res.CPUCPUBy)
	}
}

func TestE6CountStaysOffTheNetwork(t *testing.T) {
	res, err := E6NICCount(20000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 20000 {
		t.Fatalf("count = %d", res.Count)
	}
	if res.SmartNet*100 >= res.LegacyNet {
		t.Errorf("smart COUNT network bytes %v not ≪ legacy %v", res.SmartNet, res.LegacyNet)
	}
	if res.SmartHost*100 >= res.LegacyHost {
		t.Errorf("smart COUNT host bytes %v not ≪ legacy %v", res.SmartHost, res.LegacyHost)
	}
}

func TestE7AdvantageGrowsAsSelectivityDrops(t *testing.T) {
	res, err := E7NearMemoryFilter(50000, []float64{0.01, 0.1, 0.5}, false)
	if err != nil {
		t.Fatal(err)
	}
	prevGain := 0.0
	for i := len(res.Rows) - 1; i >= 0; i-- { // high selectivity -> low
		row := res.Rows[i]
		if row.NearBytes >= row.CPUBytes {
			t.Errorf("sel %.2f: near bytes %v >= cpu %v", row.Selectivity, row.NearBytes, row.CPUBytes)
		}
		gain := float64(row.CPUBytes) / float64(row.NearBytes)
		if gain < prevGain {
			t.Errorf("byte gain shrank as selectivity dropped: %.1f after %.1f", gain, prevGain)
		}
		prevGain = gain
	}
	// Compressed-resident variant also works and still reduces movement.
	resC, err := E7NearMemoryFilter(50000, []float64{0.1}, true)
	if err != nil {
		t.Fatal(err)
	}
	if resC.Rows[0].NearBytes >= resC.Rows[0].CPUBytes {
		t.Error("compressed variant moved more near-memory than CPU-path")
	}
}

func TestE8RemoteMemoryWidensGap(t *testing.T) {
	local, err := E8PointerChase([]int{1000, 100000}, false)
	if err != nil {
		t.Fatal(err)
	}
	remote, err := E8PointerChase([]int{1000, 100000}, true)
	if err != nil {
		t.Fatal(err)
	}
	gap := func(r E8Row) float64 { return float64(r.CPUTime) / float64(r.NearTime) }
	if gap(remote.Rows[0]) <= gap(local.Rows[0]) {
		t.Errorf("remote gap %.1f <= local gap %.1f", gap(remote.Rows[0]), gap(local.Rows[0]))
	}
	// Deeper trees cost the CPU more round trips.
	if remote.Rows[1].CPUTime <= remote.Rows[0].CPUTime {
		t.Error("deeper tree did not cost the CPU more")
	}
	for _, r := range append(local.Rows, remote.Rows...) {
		if r.NearBytes != 16 {
			t.Errorf("near path moved %v, want 16B", r.NearBytes)
		}
	}
}

func TestE9HardwareCoherencyWins(t *testing.T) {
	res, err := E9CXLCoherency(3000, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		if row.HWBytes >= row.SWBytes {
			t.Errorf("%s: hardware bytes %v >= software %v", row.Generation, row.HWBytes, row.SWBytes)
		}
		if row.HWTime >= row.SWTime {
			t.Errorf("%s: hardware time %v >= software %v", row.Generation, row.HWTime, row.SWTime)
		}
		if row.HWHits == 0 {
			t.Errorf("%s: no cache hits under hardware coherency", row.Generation)
		}
	}
	// Bandwidth scaling: PCIe7 must beat PCIe3 in software mode (bulk
	// transfer bound).
	if res.Rows[5].SWTime >= res.Rows[0].SWTime {
		t.Error("later generations not faster")
	}
}

func TestE10FullPipelineShape(t *testing.T) {
	res, err := E10FullPipeline(30000)
	if err != nil {
		t.Fatal(err)
	}
	df, vo := res.DataFlow, res.Volcano
	if df.MovedBytes >= vo.MovedBytes {
		t.Errorf("dataflow moved %v >= volcano %v", df.MovedBytes, vo.MovedBytes)
	}
	if df.CPUBusy >= vo.CPUBusy {
		t.Errorf("dataflow CPU busy %v >= volcano %v", df.CPUBusy, vo.CPUBusy)
	}
	if df.SimTime >= vo.SimTime {
		t.Errorf("dataflow makespan %v >= volcano %v", df.SimTime, vo.SimTime)
	}
	if df.PeakMemory >= vo.PeakMemory {
		t.Errorf("dataflow memory %v >= volcano %v", df.PeakMemory, vo.PeakMemory)
	}
	// The full offload must also beat the same engine's cpu-only plan on
	// movement.
	if df.MovedBytes >= res.CPUOnly.MovedBytes {
		t.Errorf("full-offload moved %v >= cpu-only %v", df.MovedBytes, res.CPUOnly.MovedBytes)
	}
}

func TestE11ControlTrafficLow(t *testing.T) {
	res, err := E11CreditFlow(500)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		if row.Overhead > 1.0 {
			t.Errorf("depth %d: credit/data = %.2f > 1", row.Depth, row.Overhead)
		}
		if row.CreditMsgs == 0 {
			t.Errorf("depth %d: no credit messages", row.Depth)
		}
	}
	// Deeper queues batch more credits: overhead shrinks monotonically.
	for i := 1; i < len(res.Rows); i++ {
		if res.Rows[i].Overhead > res.Rows[i-1].Overhead {
			t.Errorf("overhead grew with depth: %.3f -> %.3f", res.Rows[i-1].Overhead, res.Rows[i].Overhead)
		}
	}
}

func TestE12SchedulingHelps(t *testing.T) {
	res, err := E12Interference(20000)
	if err != nil {
		t.Fatal(err)
	}
	if res.ScheduledTime >= res.NaiveTime {
		t.Errorf("scheduled makespan %v >= naive %v", res.ScheduledTime, res.NaiveTime)
	}
	if res.SchedVariants[0] == res.SchedVariants[1] {
		t.Errorf("scheduler co-located both plans: %v", res.SchedVariants)
	}
}

func TestE13FootprintShapes(t *testing.T) {
	res, err := E13NoBufferPool([]int{10000, 40000}, 1*sim.MB)
	if err != nil {
		t.Fatal(err)
	}
	small, big := res.Rows[0], res.Rows[1]
	voGrowth := float64(big.VolcanoMem) / float64(small.VolcanoMem)
	dfGrowth := float64(big.DataflowMem) / float64(small.DataflowMem)
	// The pool saturates at capacity; dataflow stays flat well below it.
	if dfGrowth > 1.5 {
		t.Errorf("dataflow footprint grew %.2fx with 4x data", dfGrowth)
	}
	if big.DataflowMem >= big.VolcanoMem {
		t.Errorf("dataflow %v >= volcano %v at 40k rows", big.DataflowMem, big.VolcanoMem)
	}
	_ = voGrowth
	// Undersized pool thrashes on the big table.
	if big.VolcanoHit > 0.5 {
		t.Errorf("volcano hit rate %.2f with working set ≫ pool; expected thrash", big.VolcanoHit)
	}
}

func TestE14PipelineFlatAndCacheFree(t *testing.T) {
	res, err := E14NoDataCache(20000)
	if err != nil {
		t.Fatal(err)
	}
	if res.DataFlow >= res.ColdVolcano {
		t.Errorf("dataflow %v >= cold volcano %v", res.DataFlow, res.ColdVolcano)
	}
	if res.CacheBytes == 0 {
		t.Error("volcano held no cache despite warm pass")
	}
	// A warm pass saves the per-miss storage round trips and nothing
	// else: the CPU-centric bottleneck (decode + single-core memory
	// path) still dominates, so the cache buys a sliver, not a tier —
	// which is the paper's point.
	if res.WarmVolcano >= res.ColdVolcano {
		t.Errorf("warm volcano %v >= cold %v", res.WarmVolcano, res.ColdVolcano)
	}
}

func TestE15SetupShareVanishes(t *testing.T) {
	res, err := E15KernelSetup([]sim.Bytes{64 * sim.KB, sim.MB, 64 * sim.MB, sim.GB})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.Rows); i++ {
		if res.Rows[i].SetupShare >= res.Rows[i-1].SetupShare {
			t.Error("setup share not shrinking with stream size")
		}
	}
	if last := res.Rows[len(res.Rows)-1].SetupShare; last > 0.01 {
		t.Errorf("setup share %.4f at 1GiB, want < 1%%", last)
	}
}

func TestTableRendering(t *testing.T) {
	tb := &Table{ID: "EX", Title: "demo", Header: []string{"a", "bb"}, Notes: "n"}
	tb.AddRow("1", "2")
	out := tb.String()
	for _, want := range []string{"EX", "demo", "a", "bb", "note: n"} {
		if !strings.Contains(out, want) {
			t.Errorf("table output missing %q:\n%s", want, out)
		}
	}
}
