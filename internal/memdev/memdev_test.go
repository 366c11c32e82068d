package memdev

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/columnar"
	"repro/internal/expr"
	"repro/internal/fabric"
	"repro/internal/sim"
)

// CountNear executes a pure COUNT on the accelerator: nothing but the
// 8-byte result crosses the link (the Section 4.4 argument applied to
// memory).
func (m *Memory) CountNear(name string, pred expr.Predicate, link *fabric.Link) (int64, AccessStats, error) {
	var st AccessStats
	if m.Accel == nil {
		return 0, st, fmt.Errorf("memdev: %s has no near-memory accelerator", m.Name)
	}
	r, err := m.Region(name)
	if err != nil {
		return 0, st, err
	}
	st.Time += m.Accel.ChargeSetup()
	if r.Compressed {
		st.Time += m.Accel.Charge(fabric.OpDecompress, r.StoredBytes())
	}
	st.Time += m.Accel.Charge(fabric.OpCount, r.DecodedBytes())
	var count int64
	if pred != nil {
		count = int64(pred.Eval(r.Batch).Count())
	} else {
		count = int64(r.Batch.NumRows())
	}
	st.Time += link.Transfer(8)
	st.BytesMoved = 8
	return count, st, nil
}

func testMemory(t *testing.T, withAccel bool) (*Memory, *fabric.Link, *fabric.Device) {
	t.Helper()
	dram := fabric.NewMemory("dram")
	var accel *fabric.Device
	if withAccel {
		accel = fabric.NewNearMemoryAccel("nma")
	}
	link := &fabric.Link{
		Name: "dram--cpu", A: "dram", B: "cpu",
		Bandwidth: fabric.CoreMemBandwidth, Latency: fabric.DDRLatency,
	}
	cpu := fabric.NewCPU("cpu", 1)
	return New("mem0", dram, accel), link, cpu
}

func valueBatch(n int) *columnar.Batch {
	schema := columnar.NewSchema(
		columnar.Field{Name: "k", Type: columnar.Int64},
		columnar.Field{Name: "v", Type: columnar.Int64},
	)
	b := columnar.NewBatch(schema, n)
	for i := 0; i < n; i++ {
		b.AppendRow(columnar.IntValue(int64(i)), columnar.IntValue(int64(i%100)))
	}
	return b
}

func TestStoreAndRegion(t *testing.T) {
	m, _, _ := testMemory(t, true)
	m.Store("r", valueBatch(1000), false)
	r, err := m.Region("r")
	if err != nil {
		t.Fatal(err)
	}
	if r.DecodedBytes() != sim.Bytes(1000*16) {
		t.Errorf("DecodedBytes = %v", r.DecodedBytes())
	}
	if r.StoredBytes() != r.DecodedBytes() {
		t.Error("uncompressed region stored != decoded")
	}
	if _, err := m.Region("missing"); err == nil {
		t.Error("missing region lookup succeeded")
	}
	if m.ResidentBytes() != r.StoredBytes() {
		t.Error("ResidentBytes wrong")
	}
	m.Drop("r")
	if m.ResidentBytes() != 0 {
		t.Error("Drop did not release bytes")
	}
}

func TestCompressedRegionSmaller(t *testing.T) {
	m, _, _ := testMemory(t, true)
	r := m.Store("c", valueBatch(10000), true)
	if r.StoredBytes() >= r.DecodedBytes() {
		t.Errorf("compressed stored %v >= decoded %v", r.StoredBytes(), r.DecodedBytes())
	}
}

func TestFilterCPUVsNearCorrectness(t *testing.T) {
	m, link, cpu := testMemory(t, true)
	m.Store("r", valueBatch(5000), false)
	pred := expr.NewCmp(1, expr.Lt, columnar.IntValue(10)) // 10% selectivity

	cpuOut, cpuStats, err := m.FilterToCPU("r", pred, link, cpu)
	if err != nil {
		t.Fatal(err)
	}
	nearOut, nearStats, err := m.FilterNear("r", pred, link)
	if err != nil {
		t.Fatal(err)
	}
	if cpuOut.NumRows() != 500 || nearOut.NumRows() != 500 {
		t.Fatalf("rows cpu=%d near=%d, want 500", cpuOut.NumRows(), nearOut.NumRows())
	}
	// The near path must move ~10x fewer bytes across the link.
	if nearStats.BytesMoved*5 >= cpuStats.BytesMoved {
		t.Errorf("near moved %v vs cpu %v; expected big reduction", nearStats.BytesMoved, cpuStats.BytesMoved)
	}
	if nearStats.Time >= cpuStats.Time {
		t.Errorf("near time %v >= cpu time %v at 10%% selectivity", nearStats.Time, cpuStats.Time)
	}
}

func TestFilterNearRequiresAccel(t *testing.T) {
	m, link, _ := testMemory(t, false)
	m.Store("r", valueBatch(10), false)
	if _, _, err := m.FilterNear("r", expr.NewCmp(1, expr.Eq, columnar.IntValue(1)), link); err == nil {
		t.Error("FilterNear without accelerator succeeded")
	}
}

func TestDecompressOnDemand(t *testing.T) {
	m, link, cpu := testMemory(t, true)
	m.Store("c", valueBatch(20000), true)
	pred := expr.NewCmp(1, expr.Lt, columnar.IntValue(5))
	out, st, err := m.FilterNear("c", pred, link)
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows() != 1000 {
		t.Errorf("rows = %d, want 1000", out.NumRows())
	}
	// Accelerator was charged decompress work.
	if m.Accel.Meter.Busy() <= 0 {
		t.Error("accelerator idle despite decompress-on-demand")
	}
	cpuOut, cpuSt, err := m.FilterToCPU("c", pred, link, cpu)
	if err != nil {
		t.Fatal(err)
	}
	if cpuOut.NumRows() != 1000 {
		t.Errorf("cpu rows = %d", cpuOut.NumRows())
	}
	if st.BytesMoved >= cpuSt.BytesMoved {
		t.Error("near path moved more than CPU path")
	}
}

func TestCountNear(t *testing.T) {
	m, link, _ := testMemory(t, true)
	m.Store("r", valueBatch(3000), false)
	cnt, st, err := m.CountNear("r", nil, link)
	if err != nil {
		t.Fatal(err)
	}
	if cnt != 3000 {
		t.Errorf("count = %d", cnt)
	}
	if st.BytesMoved != 8 {
		t.Errorf("count moved %v bytes, want 8", st.BytesMoved)
	}
	cnt, _, err = m.CountNear("r", expr.NewCmp(1, expr.Eq, columnar.IntValue(7)), link)
	if err != nil {
		t.Fatal(err)
	}
	if cnt != 30 {
		t.Errorf("filtered count = %d, want 30", cnt)
	}
}

func TestTransposeBothPaths(t *testing.T) {
	m, link, cpu := testMemory(t, true)
	m.Store("r", valueBatch(100), false)
	rowsNear, stNear, err := m.TransposeToRows("r", true, link, cpu)
	if err != nil {
		t.Fatal(err)
	}
	rowsCPU, stCPU, err := m.TransposeToRows("r", false, link, cpu)
	if err != nil {
		t.Fatal(err)
	}
	if len(rowsNear) != 100 || len(rowsCPU) != 100 {
		t.Fatal("row counts wrong")
	}
	if !rowsNear[5][0].Equal(rowsCPU[5][0]) {
		t.Error("paths disagree on data")
	}
	if stNear.BytesMoved >= stCPU.BytesMoved {
		t.Errorf("near transpose moved %v >= cpu %v", stNear.BytesMoved, stCPU.BytesMoved)
	}
}

func TestCompact(t *testing.T) {
	m, link, cpu := testMemory(t, true)
	m.Store("r", valueBatch(1000), false)
	live := columnar.NewBitmap(1000)
	for i := 0; i < 1000; i += 2 {
		live.Set(i)
	}
	stNear, err := m.Compact("r", live, true, link, cpu)
	if err != nil {
		t.Fatal(err)
	}
	r, _ := m.Region("r")
	if r.Batch.NumRows() != 500 {
		t.Errorf("rows after compact = %d, want 500", r.Batch.NumRows())
	}
	// CPU-path compaction on the already-halved region.
	live2 := columnar.NewBitmap(500)
	for i := 0; i < 250; i++ {
		live2.Set(i)
	}
	stCPU, err := m.Compact("r", live2, false, link, cpu)
	if err != nil {
		t.Fatal(err)
	}
	if r.Batch.NumRows() != 250 {
		t.Errorf("rows = %d, want 250", r.Batch.NumRows())
	}
	if stNear.BytesMoved >= stCPU.BytesMoved {
		t.Errorf("near compact moved %v >= cpu %v", stNear.BytesMoved, stCPU.BytesMoved)
	}
	// Mismatched bitmap is rejected.
	if _, err := m.Compact("r", columnar.NewBitmap(7), true, link, cpu); err == nil {
		t.Error("mismatched live bitmap accepted")
	}
}

func TestPointerTreeBuildAndLookup(t *testing.T) {
	keys := make([]int64, 1000)
	vals := make([]int64, 1000)
	for i := range keys {
		keys[i] = int64(i * 3) // sparse keys
		vals[i] = int64(i)
	}
	tree, err := BuildPointerTree(keys, vals, 16)
	if err != nil {
		t.Fatal(err)
	}
	if tree.NumKeys() != 1000 {
		t.Errorf("NumKeys = %d", tree.NumKeys())
	}
	if tree.Depth() < 3 {
		t.Errorf("Depth = %d, want >= 3 for 1000 keys fanout 16", tree.Depth())
	}
	m, link, cpu := testMemory(t, true)
	for _, k := range []int64{0, 3, 999 * 3, 501 * 3} {
		v, found, _ := tree.LookupCPU(k, link, cpu)
		if !found || v != k/3 {
			t.Errorf("LookupCPU(%d) = %d found=%v", k, v, found)
		}
		v, found, _, err := tree.LookupNear(k, m, link)
		if err != nil {
			t.Fatal(err)
		}
		if !found || v != k/3 {
			t.Errorf("LookupNear(%d) = %d found=%v", k, v, found)
		}
	}
	// Absent key.
	if _, found, _ := tree.LookupCPU(1, link, cpu); found {
		t.Error("found absent key")
	}
}

func TestPointerChaseMovementAdvantage(t *testing.T) {
	keys := make([]int64, 100000)
	vals := make([]int64, 100000)
	for i := range keys {
		keys[i] = int64(i)
		vals[i] = int64(i) * 7
	}
	tree, err := BuildPointerTree(keys, vals, 16)
	if err != nil {
		t.Fatal(err)
	}
	m, _, cpu := testMemory(t, true)
	// Remote memory: RDMA-latency link.
	remote := &fabric.Link{Name: "rdma", A: "mem", B: "cpu",
		Bandwidth: sim.GbitPerSec(400), Latency: fabric.RDMALatency}
	_, _, cpuStats := tree.LookupCPU(4242, remote, cpu)
	_, _, nearStats, err := tree.LookupNear(4242, m, remote)
	if err != nil {
		t.Fatal(err)
	}
	if nearStats.BytesMoved != 16 {
		t.Errorf("near moved %v, want 16B", nearStats.BytesMoved)
	}
	if cpuStats.BytesMoved <= nearStats.BytesMoved*10 {
		t.Errorf("cpu moved %v, near %v: advantage too small", cpuStats.BytesMoved, nearStats.BytesMoved)
	}
	// Each CPU hop pays a network round trip; near pays DRAM latency.
	if cpuStats.Time <= nearStats.Time*2 {
		t.Errorf("cpu %v vs near %v: latency advantage missing", cpuStats.Time, nearStats.Time)
	}
}

func TestPointerTreeErrors(t *testing.T) {
	if _, err := BuildPointerTree([]int64{1}, []int64{}, 16); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := BuildPointerTree(nil, nil, 16); err == nil {
		t.Error("empty tree accepted")
	}
	if _, err := BuildPointerTree([]int64{1}, []int64{1}, 1); err == nil {
		t.Error("fanout 1 accepted")
	}
}

// Property: every inserted key is found with its value regardless of
// insertion order and fanout.
func TestPointerTreeLookupProperty(t *testing.T) {
	f := func(raw []int64, fanoutRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		fanout := 2 + int(fanoutRaw)%30
		// Dedupe keys.
		seen := map[int64]int64{}
		var keys, vals []int64
		for i, k := range raw {
			if _, dup := seen[k]; !dup {
				seen[k] = int64(i)
				keys = append(keys, k)
				vals = append(vals, int64(i))
			}
		}
		tree, err := BuildPointerTree(keys, vals, fanout)
		if err != nil {
			return false
		}
		for i, k := range keys {
			v, _, found := tree.lookupPath(k)
			if !found || v != vals[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// Drop releases a region.
func (m *Memory) Drop(name string) {
	m.mu.Lock()
	delete(m.regions, name)
	m.mu.Unlock()
}

// ResidentBytes sums the stored footprint of all regions.
func (m *Memory) ResidentBytes() sim.Bytes {
	m.mu.RLock()
	defer m.mu.RUnlock()
	var n sim.Bytes
	for _, r := range m.regions {
		n += r.StoredBytes()
	}
	return n
}

// NumKeys reports the number of stored keys.
func (t *PointerTree) NumKeys() int {
	n := 0
	for _, leaf := range t.levels[len(t.levels)-1] {
		n += len(leaf.keys)
	}
	return n
}
