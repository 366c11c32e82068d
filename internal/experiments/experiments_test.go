package experiments

import (
	"context"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/sim"
)

// The tests below assert the qualitative shapes the paper predicts —
// who wins, in which direction the curves move — on small instances.
// cmd/dfbench runs the same experiments at larger scale (50,000 rows by
// default), and TestGoldenTables pins their tables at 20,000.

func TestE1AllBytesCrossEveryHop(t *testing.T) {
	res, err := E1ConventionalPath(5000)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Table.Rows) != 4 {
		t.Fatalf("rows = %d", len(res.Table.Rows))
	}
	last := res.Rows[len(res.Rows)-1]
	for hop, bytes := range map[string]sim.Bytes{"disk--dram": last.DiskDRAM, "dram--llc": last.DRAMLLC, "llc--cpu": last.LLCCPU} {
		if bytes < last.TableSize {
			t.Errorf("hop %s carried %v < table size %v", hop, bytes, last.TableSize)
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
	if nic, cpu := res.Rows[0].CPUBusy, res.Rows[1].CPUBusy; nic >= cpu {
		t.Errorf("CPU busy with NIC hashing %v >= with CPU hashing %v", nic, cpu)
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
	nic, cpu := res.Rows[0], res.Rows[1]
	if nic.Rows != cpu.Rows {
		t.Fatal("join modes disagree")
	}
	if nic.CPUBytes >= cpu.CPUBytes {
		t.Errorf("NIC-scatter CPU bytes %v >= CPU-scatter %v", nic.CPUBytes, cpu.CPUBytes)
	}
}

func TestE6CountStaysOffTheNetwork(t *testing.T) {
	res, err := E6NICCount(20000)
	if err != nil {
		t.Fatal(err)
	}
	smart, legacy := res.Rows[0], res.Rows[1]
	if smart.Count != 20000 {
		t.Fatalf("count = %d", smart.Count)
	}
	if smart.Net*100 >= legacy.Net {
		t.Errorf("smart COUNT network bytes %v not ≪ legacy %v", smart.Net, legacy.Net)
	}
	if smart.Host*100 >= legacy.Host {
		t.Errorf("smart COUNT host bytes %v not ≪ legacy %v", smart.Host, legacy.Host)
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
	df, vo := res.Rows[0], res.Rows[2]
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
	if cpuOnly := res.Rows[1]; df.MovedBytes >= cpuOnly.MovedBytes {
		t.Errorf("full-offload moved %v >= cpu-only %v", df.MovedBytes, cpuOnly.MovedBytes)
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
	naive, sched := res.Rows[0], res.Rows[1]
	if sched.Makespan >= naive.Makespan {
		t.Errorf("scheduled makespan %v >= naive %v", sched.Makespan, naive.Makespan)
	}
	if sched.Placement1 == sched.Placement2 {
		t.Errorf("scheduler co-located both plans: %v", sched)
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
	cold, warm, df := res.Rows[0], res.Rows[1], res.Rows[2]
	if df.Makespan >= cold.Makespan {
		t.Errorf("dataflow %v >= cold volcano %v", df.Makespan, cold.Makespan)
	}
	if warm.Cache == 0 {
		t.Error("volcano held no cache despite warm pass")
	}
	// A warm pass saves the per-miss storage round trips and nothing
	// else: the CPU-centric bottleneck (decode + single-core memory
	// path) still dominates, so the cache buys a sliver, not a tier —
	// which is the paper's point.
	if warm.Makespan >= cold.Makespan {
		t.Errorf("warm volcano %v >= cold %v", warm.Makespan, cold.Makespan)
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

// Each renderer rule once; the golden tables pin them in context, but
// not E26's mttr (a wall-clock table).
func TestRowRendering(t *testing.T) {
	type row struct {
		Name  string        `col:"name"`
		Bytes sim.Bytes     `col:"bytes"`
		Ratio float64       `col:"ratio"`
		Sel   float64       `col:"sel,pct"`
		Gain  float64       `col:"gain,%.3gx"`
		Raw   sim.Bytes     `col:"raw,%d"`
		Lat   time.Duration `col:"lat,us"`
		MTTR  time.Duration `col:"mttr,-ms"`
		Won   slash         `col:"won"`
		Note  string
	}
	res := newResult[row]("EX", "demo", "")
	res.put(row{"a", 2048, 2.0 / 3, 0.001, 2000, 2048, 1234567 * time.Nanosecond, 0, slash{3, 1}, "x"})
	res.put(row{"b", 16, 1, 1, 1.5, 16, time.Second, 1499 * time.Millisecond, slash{1, 2, 3}, "y"})
	want := [][]string{
		{"a", "2.00KiB", "0.667", "0.1%", "2e+03x", "2048", "1.235ms", "-", "3/1"},
		{"b", "16B", "1", "100.0%", "1.5x", "16", "1s", "1.499s", "1/2/3"},
	}
	if got := res.Table.Header; !slices.Equal(got, []string{"name", "bytes", "ratio", "sel", "gain", "raw", "lat", "mttr", "won"}) {
		t.Errorf("header = %q", got)
	}
	for i := range want {
		if !slices.Equal(res.Table.Rows[i], want[i]) {
			t.Errorf("row %d = %q, want %q", i, res.Table.Rows[i], want[i])
		}
	}
	if len(res.Rows) != 2 || res.Rows[1].Note != "y" {
		t.Errorf("typed rows = %+v", res.Rows)
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
