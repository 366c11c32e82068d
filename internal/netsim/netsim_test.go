package netsim

import (
	"sync"
	"testing"

	"repro/internal/columnar"
	"repro/internal/exec"
	"repro/internal/fabric"
	"repro/internal/sim"
)

func kvSchema() *columnar.Schema {
	return columnar.NewSchema(
		columnar.Field{Name: "k", Type: columnar.Int64},
		columnar.Field{Name: "v", Type: columnar.Int64},
	)
}

func kvBatch(ks, vs []int64) *columnar.Batch {
	return columnar.BatchOf(kvSchema(), columnar.FromInt64s(ks), columnar.FromInt64s(vs))
}

func seqBatch(n int) *columnar.Batch {
	ks := make([]int64, n)
	vs := make([]int64, n)
	for i := range ks {
		ks[i] = int64(i)
		vs[i] = int64(i * 10)
	}
	return kvBatch(ks, vs)
}

func testDests(n int) ([]Destination, [][]*columnar.Batch, []*fabric.Link) {
	collected := make([][]*columnar.Batch, n)
	links := make([]*fabric.Link, n)
	dests := make([]Destination, n)
	for i := 0; i < n; i++ {
		i := i
		links[i] = &fabric.Link{Name: "wire", A: "a", B: "b",
			Bandwidth: sim.GbitPerSec(100), Latency: fabric.RDMALatency}
		dests[i] = Destination{
			Path: []*fabric.Link{links[i]},
			Sink: func(b *columnar.Batch) error { collected[i] = append(collected[i], b); return nil },
		}
	}
	return dests, collected, links
}

func TestExchangePartitionsAllRows(t *testing.T) {
	dests, collected, links := testDests(4)
	ex, err := NewExchange(0, dests)
	if err != nil {
		t.Fatal(err)
	}
	ex.BatchRows = 16
	if err := ex.Process(seqBatch(1000), nil); err != nil {
		t.Fatal(err)
	}
	if err := ex.Flush(nil); err != nil {
		t.Fatal(err)
	}
	total := 0
	for i, part := range collected {
		for _, b := range part {
			total += b.NumRows()
			// Every row in partition i must hash there.
			col := b.Col(0)
			for r := 0; r < b.NumRows(); r++ {
				if got := exec.PartitionOf(exec.HashValue(col, r, exec.SeedPartition), 4); got != i {
					t.Fatalf("row with key %d in partition %d, hashes to %d", col.Int64s()[r], i, got)
				}
			}
		}
		if links[i].Meter.Bytes() == 0 {
			t.Errorf("destination %d path carried no bytes", i)
		}
	}
	if total != 1000 {
		t.Errorf("total scattered rows = %d, want 1000", total)
	}
}

func TestExchangeDeterministicRouting(t *testing.T) {
	run := func() []int64 {
		dests, collected, _ := testDests(3)
		ex, _ := NewExchange(0, dests)
		ex.Process(seqBatch(500), nil)
		ex.Flush(nil)
		sent := make([]int64, len(collected))
		for i, part := range collected {
			for _, b := range part {
				sent[i] += int64(b.NumRows())
			}
		}
		return sent
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("routing not deterministic")
		}
	}
}

func TestExchangeNeedsDestinations(t *testing.T) {
	if _, err := NewExchange(0, nil); err == nil {
		t.Error("empty exchange accepted")
	}
}

func TestGather(t *testing.T) {
	l := &fabric.Link{Name: "up", A: "a", B: "b", Bandwidth: sim.GBPerSec, Latency: 0}
	parts := [][]*columnar.Batch{
		{seqBatch(5)},
		{seqBatch(3), seqBatch(2)},
	}
	out := Gather(nil, parts, [][]*fabric.Link{{l}, {l}})
	if len(out) != 3 {
		t.Fatalf("gathered %d batches", len(out))
	}
	if l.Meter.Bytes() == 0 {
		t.Error("gather paths uncharged")
	}
}

func buildJoinConfig(t *testing.T, nodes int, smartNIC bool) DistJoinConfig {
	t.Helper()
	cfg := DistJoinConfig{BuildKey: 0, ProbeKey: 0, BatchRows: 64}
	if smartNIC {
		cfg.ScatterDevice = fabric.NewSmartNIC("nic", sim.GbitPerSec(400))
	} else {
		cfg.ScatterDevice = fabric.NewCPU("scatter-cpu", 4)
	}
	for i := 0; i < nodes; i++ {
		cfg.Nodes = append(cfg.Nodes, fabric.NewCPU("cpu", 4))
		cfg.Paths = append(cfg.Paths, []*fabric.Link{{
			Name: "eth", A: "sw", B: "n",
			Bandwidth: sim.GbitPerSec(400), Latency: fabric.RDMALatency,
		}})
	}
	return cfg
}

func TestDistributedJoinCorrectness(t *testing.T) {
	for _, nodes := range []int{1, 2, 4, 8} {
		cfg := buildJoinConfig(t, nodes, true)
		// Build: keys 0..99. Probe: keys 0..199 (half match), each twice.
		build := []*columnar.Batch{seqBatch(100)}
		var pk, pv []int64
		for rep := 0; rep < 2; rep++ {
			for i := 0; i < 200; i++ {
				pk = append(pk, int64(i))
				pv = append(pv, int64(rep))
			}
		}
		probe := []*columnar.Batch{kvBatch(pk, pv)}
		res, err := DistributedJoin(cfg, build, probe, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.Rows != 200 {
			t.Errorf("nodes=%d: joined rows = %d, want 200", nodes, res.Rows)
		}
	}
}

func TestDistributedJoinResultsDelivered(t *testing.T) {
	cfg := buildJoinConfig(t, 2, true)
	var rows int64
	res, err := DistributedJoin(cfg,
		[]*columnar.Batch{seqBatch(50)},
		[]*columnar.Batch{seqBatch(50)},
		func(node int, b *columnar.Batch) error {
			rows += int64(b.NumRows())
			// Joined key columns must agree.
			for i := 0; i < b.NumRows(); i++ {
				if b.Col(0).Int64s()[i] != b.Col(2).Int64s()[i] {
					t.Error("join key mismatch")
				}
			}
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if rows != 50 || res.Rows != 50 {
		t.Errorf("rows = %d / %d, want 50", rows, res.Rows)
	}
}

func TestDistributedJoinNICRelievesCPU(t *testing.T) {
	build := []*columnar.Batch{seqBatch(2000)}
	probe := []*columnar.Batch{seqBatch(20000)}

	nicCfg := buildJoinConfig(t, 4, true)
	nicRes, err := DistributedJoin(nicCfg, build, probe, nil)
	if err != nil {
		t.Fatal(err)
	}
	cpuCfg := buildJoinConfig(t, 4, false)
	cpuRes, err := DistributedJoin(cpuCfg, build, probe, nil)
	if err != nil {
		t.Fatal(err)
	}
	if nicRes.Rows != cpuRes.Rows {
		t.Fatalf("modes disagree: %d vs %d rows", nicRes.Rows, cpuRes.Rows)
	}
	// In NIC mode no node CPU does partitioning, and the scatter CPU
	// device is absent: total CPU bytes must be lower by the scatter
	// volume.
	cpuTotal := cpuRes.CPUBytes + cpuRes.ScatterBytes
	nicTotal := nicRes.CPUBytes
	if nicTotal >= cpuTotal {
		t.Errorf("NIC mode CPU bytes %v >= CPU mode %v", nicTotal, cpuTotal)
	}
}

// Two joins started together over the same scatter device and node CPUs
// each report the bytes they charged themselves — what the join reports
// alone — and together what the shared meters gained.
func TestConcurrentDistributedJoinsReportTheirOwnBytes(t *testing.T) {
	build := []*columnar.Batch{seqBatch(2000)}
	probe := []*columnar.Batch{seqBatch(20000)}
	solo, err := DistributedJoin(buildJoinConfig(t, 4, true), build, probe, nil)
	if err != nil {
		t.Fatal(err)
	}
	if solo.ScatterBytes == 0 || solo.CPUBytes == 0 {
		t.Fatalf("the solo join charged nothing: %+v", solo)
	}

	cfg := buildJoinConfig(t, 4, true)
	results := make([]DistJoinResult, 2)
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := DistributedJoin(cfg, build, probe, nil)
			if err != nil {
				t.Error(err)
			}
			results[i] = res
		}()
	}
	wg.Wait()
	var cpuMeters sim.Bytes
	for _, cpu := range cfg.Nodes {
		cpuMeters += cpu.Meter.Bytes()
	}
	for i, res := range results {
		if res.ScatterBytes != solo.ScatterBytes || res.CPUBytes != solo.CPUBytes {
			t.Errorf("join %d reports scatter %v / cpu %v, alone it reports %v / %v",
				i, res.ScatterBytes, res.CPUBytes, solo.ScatterBytes, solo.CPUBytes)
		}
	}
	if got := cfg.ScatterDevice.Meter.Bytes(); got != 2*solo.ScatterBytes || cpuMeters != 2*solo.CPUBytes {
		t.Errorf("meters gained scatter %v / cpu %v, want twice the solo join's %v / %v",
			got, cpuMeters, solo.ScatterBytes, solo.CPUBytes)
	}
}

func TestDistributedJoinValidation(t *testing.T) {
	cfg := buildJoinConfig(t, 2, true)
	if _, err := DistributedJoin(DistJoinConfig{}, nil, nil, nil); err == nil {
		t.Error("empty config accepted")
	}
	bad := cfg
	bad.Paths = bad.Paths[:1]
	if _, err := DistributedJoin(bad, []*columnar.Batch{seqBatch(1)}, nil, nil); err == nil {
		t.Error("mismatched paths accepted")
	}
	if _, err := DistributedJoin(cfg, nil, nil, nil); err == nil {
		t.Error("empty build accepted")
	}
	dumb := cfg
	dumb.ScatterDevice = fabric.NewMemory("dumb")
	if _, err := DistributedJoin(dumb, []*columnar.Batch{seqBatch(1)}, nil, nil); err == nil {
		t.Error("non-partitioning scatter device accepted")
	}
}

func TestDistributedJoinSkewBounds(t *testing.T) {
	cfg := buildJoinConfig(t, 4, true)
	res, err := DistributedJoin(cfg,
		[]*columnar.Batch{seqBatch(1000)},
		[]*columnar.Batch{seqBatch(100000)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.SkewMin == 0 {
		t.Error("a node received nothing")
	}
	if float64(res.SkewMax) > 1.3*float64(res.SkewMin) {
		t.Errorf("hash skew %d vs %d exceeds 30%%", res.SkewMax, res.SkewMin)
	}
}
