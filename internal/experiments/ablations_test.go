package experiments

import (
	"testing"

	"repro/internal/sim"
)

func TestE16StallsGrowWithWorkingSet(t *testing.T) {
	res, err := E16CacheStalls()
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Rows
	// Random-access stall share grows monotonically with the working
	// set and saturates near 1.
	for i := 1; i < len(rows); i++ {
		if rows[i].RndStall+0.02 < rows[i-1].RndStall {
			t.Errorf("random stall share fell: %.2f -> %.2f", rows[i-1].RndStall, rows[i].RndStall)
		}
	}
	last := rows[len(rows)-1]
	if last.RndStall < 0.8 {
		t.Errorf("1GiB random stall share %.2f, want ~1", last.RndStall)
	}
	if last.TLBMissRnd < 0.5 {
		t.Errorf("1GiB TLB miss rate %.2f, want high", last.TLBMissRnd)
	}
	// Sequential scans stall far less than random at large sizes.
	if last.SeqStall >= last.RndStall {
		t.Errorf("sequential stall %.2f >= random %.2f", last.SeqStall, last.RndStall)
	}
	// Near-memory filtering keeps ~95% of bytes out of the hierarchy.
	if res.Filter.Near*10 >= res.Filter.CPU {
		t.Errorf("near hierarchy time %v not ≪ cpu %v", res.Filter.Near, res.Filter.CPU)
	}
}

func TestA1CompressionCrossover(t *testing.T) {
	res, err := A1WireCompression(30000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0].Ratio >= 1 {
		t.Fatalf("segment did not compress (ratio %.2f)", res.Rows[0].Ratio)
	}
	// Compression must win on the slowest link and lose on the fastest
	// (software compressor 2GB/s vs a 200GB/s link).
	if !res.Rows[0].Wins {
		t.Errorf("compression lost on %s", res.Rows[0].Tier)
	}
	if last := res.Rows[len(res.Rows)-1]; last.Wins {
		t.Errorf("compression won on %s despite 2GB/s compressor", last.Tier)
	}
	// There is exactly one crossover: wins are a prefix.
	seenLoss := false
	for _, row := range res.Rows {
		if !row.Wins {
			seenLoss = true
		} else if seenLoss {
			t.Error("compression re-won after losing: no clean crossover")
		}
	}
}

func TestA2FasterNICsStopHelping(t *testing.T) {
	res, err := A2NICTierSweep(30000)
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Rows
	// Makespans are non-increasing with NIC speed...
	for i := 1; i < len(rows); i++ {
		if rows[i].Makespan > rows[i-1].Makespan {
			t.Errorf("faster NIC slower: %v -> %v", rows[i-1].Makespan, rows[i].Makespan)
		}
	}
	// ...and the two fastest tiers are equal: the bottleneck has moved
	// off the network (the paper's "we will not lack bandwidth").
	if rows[len(rows)-1].Makespan != rows[len(rows)-2].Makespan {
		t.Errorf("1.6T still faster than 800G: network still the bottleneck")
	}
	if rows[len(rows)-1].Bottleneck == "" {
		t.Error("no bottleneck identified")
	}
}

func TestA3FinerSegmentsPruneMore(t *testing.T) {
	res, err := A3SegmentSize(60000)
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Rows
	// Unpruned rows (segments surviving x rows per segment) must not
	// shrink as segments get coarser: finer zone maps are at least as
	// tight. (Media bytes can wiggle slightly with encoding overheads,
	// so assert on rows, the quantity zone maps actually control.)
	for i := 1; i < len(rows); i++ {
		scanned := func(r A3Row) int64 {
			return int64(r.Total-r.Pruned) * int64(r.SegmentRows)
		}
		if scanned(rows[i]) < scanned(rows[i-1]) {
			t.Errorf("coarser segments scanned fewer rows: %d -> %d",
				scanned(rows[i-1]), scanned(rows[i]))
		}
	}
	if rows[0].Pruned == 0 {
		t.Error("finest segmentation pruned nothing")
	}
	// The finest granularity must scan dramatically less than the
	// coarsest for a 5% clustered range.
	finest := int64(rows[0].Total-rows[0].Pruned) * int64(rows[0].SegmentRows)
	coarsest := int64(rows[len(rows)-1].Total-rows[len(rows)-1].Pruned) * int64(rows[len(rows)-1].SegmentRows)
	if finest*2 >= coarsest {
		t.Errorf("finest scanned %d rows vs coarsest %d; pruning advantage missing", finest, coarsest)
	}
}

func TestA4SmallerBudgetsSpillMore(t *testing.T) {
	res, err := A4StateBudget(60000, 20000)
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Rows
	for i := 1; i < len(rows); i++ {
		if rows[i].ShippedRows > rows[i-1].ShippedRows {
			t.Errorf("larger budget shipped more: %d -> %d", rows[i-1].ShippedRows, rows[i].ShippedRows)
		}
	}
	// The unbounded budget ships exactly the distinct-key count once.
	last := rows[len(rows)-1]
	if last.ShippedRows > 20000 {
		t.Errorf("unbounded budget shipped %d rows for <=20000 keys", last.ShippedRows)
	}
	if rows[0].ShippedRows <= last.ShippedRows {
		t.Error("tiny budget did not spill more than unbounded")
	}
}

func TestE17OffloadReducesNetworkAndCPU(t *testing.T) {
	res, err := E17DisaggregatedMemory(50000, []float64{0.01, 0.1, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		if row.OffloadBytes >= row.PullBytes {
			t.Errorf("sel %.2f: offload net %v >= pull %v", row.Selectivity, row.OffloadBytes, row.PullBytes)
		}
		if row.CPUBusyOff >= row.CPUBusyPull {
			t.Errorf("sel %.2f: offload CPU %v >= pull %v", row.Selectivity, row.CPUBusyOff, row.CPUBusyPull)
		}
	}
	// The byte advantage tracks 1/selectivity.
	g0 := float64(res.Rows[0].PullBytes) / float64(res.Rows[0].OffloadBytes)
	g2 := float64(res.Rows[2].PullBytes) / float64(res.Rows[2].OffloadBytes)
	if g0 <= g2 {
		t.Errorf("gain did not grow as selectivity dropped: %.1f vs %.1f", g0, g2)
	}
}

func TestE18TransposeUnit(t *testing.T) {
	res, err := E18HTAPTranspose([]int{10000, 100000})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		// The unit ships only a completion token; the CPU path drags
		// the region both ways.
		if row.NearBytes != 8 {
			t.Errorf("rows=%d: near moved %v, want 8B", row.Rows, row.NearBytes)
		}
		if row.CPUBytes < 2*sim.Bytes(row.Rows)*16 {
			t.Errorf("rows=%d: cpu moved %v, want >= 2x region", row.Rows, row.CPUBytes)
		}
		if row.NearTime >= row.CPUTime {
			t.Errorf("rows=%d: near %v >= cpu %v", row.Rows, row.NearTime, row.CPUTime)
		}
	}
	// Both paths scale with region size; the gap persists.
	if res.Rows[1].CPUTime <= res.Rows[0].CPUTime {
		t.Error("cpu path did not scale with region size")
	}
}

func TestA5ScaleOutShrinksPerNodeWork(t *testing.T) {
	res, err := A5ScaleOut(40000, []int{1, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Rows
	for i := 1; i < len(rows); i++ {
		if rows[i].MaxCPUBusy >= rows[i-1].MaxCPUBusy {
			t.Errorf("%d nodes: busiest CPU %v >= %d nodes: %v",
				rows[i].Nodes, rows[i].MaxCPUBusy, rows[i-1].Nodes, rows[i-1].MaxCPUBusy)
		}
	}
	// Doubling nodes roughly halves per-node aggregation work.
	ratio := float64(rows[0].MaxCPUBusy) / float64(rows[2].MaxCPUBusy)
	if ratio < 2.5 {
		t.Errorf("1->4 nodes cut busiest CPU only %.1fx, want ~4x", ratio)
	}
}
