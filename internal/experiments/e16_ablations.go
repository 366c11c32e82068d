package experiments

import (
	"context"
	"fmt"

	"repro/internal/columnar"
	"repro/internal/core"
	"repro/internal/encoding"
	"repro/internal/expr"
	"repro/internal/fabric"
	"repro/internal/memdev"
	"repro/internal/plan"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/workload"
)

// E16Row is one working-set point of the cache-stall experiment.
type E16Row struct {
	WorkingSet sim.Bytes
	SeqStall   float64 // stall share, sequential scan
	RndStall   float64 // stall share, random access
	TLBMissRnd float64 // TLB miss rate, random access
}

// E16Result carries the Section 5.1 cache/TLB measurements.
type E16Result struct {
	Result[E16Row]
	// CPUHierTime/NearHierTime compare the cache-hierarchy time of a
	// 5%-selective filter when all bytes enter the caches vs when only
	// survivors do.
	CPUHierTime  sim.VTime
	NearHierTime sim.VTime
}

// E16CacheStalls reproduces Section 5.1: cache and TLB faults stall the
// cores as working sets grow, and the near-memory path's deepest payoff
// is that filtered-out bytes never enter the hierarchy at all.
func E16CacheStalls() (*E16Result, error) {
	res := &E16Result{Result: Result[E16Row]{Table: &Table{
		ID:     "E16",
		Title:  "Cache and TLB stalls (Section 5.1): stall share vs working set",
		Header: []string{"working set", "seq stall share", "rnd stall share", "rnd TLB miss"},
		Notes:  "stall share = cycles beyond L1 hits / total; TLB covers 8MiB",
	}}}
	rng := sim.NewRNG(31)
	for _, ws := range []int64{32 << 10, 4 << 20, 64 << 20, 1 << 30} {
		h := memdev.NewDefaultHierarchy()
		// Warm, then measure.
		h.ScanSequential(0, min(ws, 8<<20))
		h.ResetStats()
		h.ScanSequential(0, min(ws, 8<<20))
		seq := h.StallShare()

		h.Reset()
		h.ScanRandom(rng, 0, ws, 30000)
		h.ResetStats()
		h.ScanRandom(rng, 0, ws, 30000)
		rnd := h.StallShare()
		tlbMiss := float64(h.TLB.Misses) / float64(h.TLB.Hits+h.TLB.Misses)

		row := E16Row{WorkingSet: sim.Bytes(ws), SeqStall: seq, RndStall: rnd, TLBMissRnd: tlbMiss}
		res.add(row, row.WorkingSet.String(),
			fmt.Sprintf("%.2f", seq), fmt.Sprintf("%.2f", rnd), fmt.Sprintf("%.2f", tlbMiss))
	}

	// The hierarchy cost of consuming a 64 MiB region at 5% selectivity:
	// the CPU path streams everything through the caches; the
	// near-memory path admits only survivors.
	const region = int64(64 << 20)
	h := memdev.NewDefaultHierarchy()
	res.CPUHierTime = h.ScanSequential(0, region)
	h.Reset()
	res.NearHierTime = h.ScanSequential(0, region/20)
	res.Table.AddRow("filter 5%:", "cpu-path "+res.CPUHierTime.String(),
		"near-path "+res.NearHierTime.String(), "")
	return res, nil
}

// A1Row is one network-tier point of the wire-compression ablation.
type A1Row struct {
	Tier     string
	RawTime  sim.VTime
	CompTime sim.VTime
	Ratio    float64 // compressed size / raw size
	Wins     bool
}

// A1WireCompression is the ablation behind the paper's Section 2.2
// observation that compression is a mandatory step of the cloud data
// path: with real LZ over real segment bytes, compressing before the
// wire wins on slow networks and loses once links outrun the
// compressor.
func A1WireCompression(rows int) (*Result[A1Row], error) {
	cfg := workload.DefaultLineitemConfig(rows)
	seg := storage.BuildSegment(0, workload.GenLineitem(cfg))
	raw := seg.Marshal()
	comp := encoding.CompressLZ(raw)
	// Round-trip check: the wire payload must decompress identically.
	back, err := encoding.DecompressLZ(comp)
	if err != nil || len(back) != len(raw) {
		return nil, fmt.Errorf("experiments: A1 compression round trip failed: %v", err)
	}
	ratio := float64(len(comp)) / float64(len(raw))

	res := &Result[A1Row]{Table: &Table{
		ID:     "A1",
		Title:  fmt.Sprintf("Ablation: wire compression (ratio %.2f) vs network speed", ratio),
		Header: []string{"link", "raw transfer", "compressed (pipelined)", "winner"},
		Notes:  "software compressor 2GB/s, decompressor 5GB/s; compression pays only while the link is the bottleneck — which is why the paper's fabric compresses in hardware on the path",
	}}
	const (
		compRate   = sim.Rate(2e9)
		decompRate = sim.Rate(5e9)
	)
	for _, gbps := range []float64{1, 10, 25, 100, 400, 1600} {
		bw := sim.GbitPerSec(gbps)
		rawTime := bw.TimeFor(sim.Bytes(len(raw)))
		// Pipelined compress -> ship -> decompress: bottleneck stage.
		compTime := max(compRate.TimeFor(sim.Bytes(len(raw))),
			bw.TimeFor(sim.Bytes(len(comp))),
			decompRate.TimeFor(sim.Bytes(len(raw))))
		row := A1Row{
			Tier:    fmt.Sprintf("%gGb/s", gbps),
			RawTime: rawTime, CompTime: compTime, Ratio: ratio,
			Wins: compTime < rawTime,
		}
		winner := "raw"
		if row.Wins {
			winner = "compressed"
		}
		res.add(row, row.Tier, rawTime.String(), compTime.String(), winner)
	}
	return res, nil
}

// A2Row is one NIC-tier point of the bandwidth-scaling ablation.
type A2Row struct {
	Tier       string
	Makespan   sim.VTime
	Bottleneck string
}

// A2NICTierSweep runs the Figure 6 pipeline across NIC generations
// (Section 2.2: "the only technology whose speed is doubling
// consistently"): once the network outruns the storage decode, faster
// NICs stop helping and the bottleneck moves into the node.
func A2NICTierSweep(rows int) (*Result[A2Row], error) {
	cfg := workload.DefaultLineitemConfig(rows)
	data := workload.GenLineitem(cfg)
	res := &Result[A2Row]{Table: &Table{
		ID:     "A2",
		Title:  "Ablation: pipeline makespan vs NIC generation",
		Header: []string{"nic", "makespan", "bottleneck"},
	}}
	for _, tier := range []fabric.LinkKind{fabric.LinkEth100, fabric.LinkEth200, fabric.LinkEth400, fabric.LinkEth800, fabric.LinkEth1600} {
		ccfg := fabric.DefaultClusterConfig()
		ccfg.NICTier = tier
		eng := core.NewDataFlowEngine(fabric.NewCluster(ccfg))
		if err := loadDataFlow(eng, "lineitem", data); err != nil {
			return nil, err
		}
		q := plan.NewQuery("lineitem").WithProjection(workload.LOrderKey, workload.LQuantity, workload.LExtendedPrice)
		// cpu-only ships everything: network-sensitive.
		r, err := runNamed(eng, q, "cpu-only")
		if err != nil {
			return nil, err
		}
		// Identify the busiest resource.
		bottleneck := ""
		var busiest sim.VTime
		for name, busy := range r.Stats.DeviceBusy {
			if busy > busiest {
				busiest, bottleneck = busy, name
			}
		}
		for _, l := range eng.Cluster.Links() {
			if b := l.Meter.Busy(); b > busiest {
				busiest, bottleneck = b, l.Name
			}
		}
		row := A2Row{Tier: tier.String(), Makespan: r.Stats.SimTime, Bottleneck: bottleneck}
		res.add(row, row.Tier, row.Makespan.String(), row.Bottleneck)
	}
	return res, nil
}

// A3Row is one segment-size point of the pruning ablation.
type A3Row struct {
	SegmentRows int
	Pruned      int
	Total       int
	MediaBytes  sim.Bytes
}

// A3SegmentSize ablates the zone-map granularity (Section 3.2: cloud
// engines replace indexes with min/max pruning): finer segments prune
// more precisely at the price of more objects. Zone maps only bite on
// clustered columns, so the table is ingested sorted by a sequence
// column — the usual time-ordered layout of fact tables.
func A3SegmentSize(rows int) (*Result[A3Row], error) {
	// Clustered two-column table: seq is monotone, v is a payload.
	seqs := make([]int64, rows)
	vals := make([]int64, rows)
	rng := sim.NewRNG(17)
	for i := range seqs {
		seqs[i] = int64(i)
		vals[i] = rng.Int63n(1000)
	}
	schema := workload.KVSchema()
	res := &Result[A3Row]{Table: &Table{
		ID:     "A3",
		Title:  "Ablation: zone-map pruning vs segment size",
		Header: []string{"rows/segment", "segments", "pruned", "media bytes"},
		Notes:  "5% range predicate on the clustered key; finer segments prune tighter",
	}}
	for _, segRows := range []int{2048, 8192, 32768, 131072} {
		eng := core.NewDataFlowEngine(fabric.NewCluster(fabric.DefaultClusterConfig()))
		eng.Storage.SegmentRows = segRows
		if err := loadDataFlow(eng, "facts", columnarKV(schema, seqs, vals)); err != nil {
			return nil, err
		}
		q := plan.NewQuery("facts").
			WithFilter(expr.NewBetween(0, int64(rows/2), int64(rows/2+rows/20))).
			WithProjection(1)
		r, err := eng.Execute(context.Background(), q)
		if err != nil {
			return nil, err
		}
		row := A3Row{
			SegmentRows: segRows,
			Pruned:      r.Stats.Scan.SegmentsPruned,
			Total:       r.Stats.Scan.SegmentsTotal,
			MediaBytes:  r.Stats.Scan.MediaBytes,
		}
		res.add(row, d(int64(segRows)), d(int64(row.Total)), d(int64(row.Pruned)), row.MediaBytes.String())
	}
	return res, nil
}

// columnarKV assembles a KV batch from raw slices.
func columnarKV(schema *columnar.Schema, ks, vs []int64) *columnar.Batch {
	return columnar.BatchOf(schema, columnar.FromInt64s(ks), columnar.FromInt64s(vs))
}

// A4Row is one budget point of the state-budget ablation.
type A4Row struct {
	BudgetGroups int
	ShippedRows  int64
}

// A4StateBudget ablates the in-path state budget (Section 3.3: in-path
// processing "has to be mostly stateless"): smaller budgets spill more
// partials, trading accelerator memory for network traffic, while
// correctness is unaffected.
func A4StateBudget(rows int, keys int64) (*Result[A4Row], error) {
	data := workload.GenKV(workload.KVConfig{Rows: rows, Keys: keys, ZipfSkew: 1.1, Seed: 13})
	res := &Result[A4Row]{Table: &Table{
		ID:     "A4",
		Title:  fmt.Sprintf("Ablation: pre-aggregation state budget (%d Zipf keys)", keys),
		Header: []string{"budget (groups)", "partial rows shipped"},
		Notes:  "bounded state spills partials; results stay exact at every budget",
	}}
	var exactCount int64 = -1
	for _, budget := range []int{64, 1024, 16384, 0} {
		agg := expr.NewPartialAggregator(workload.KVGroupBy(), workload.KVSchema(), budget)
		var shipped int64
		final := expr.NewFinalAggregator(workload.KVGroupBy(), workload.KVSchema())
		for off := 0; off < data.NumRows(); off += 4096 {
			end := off + 4096
			if end > data.NumRows() {
				end = data.NumRows()
			}
			for _, spill := range agg.AddRaw(data.Slice(off, end)) {
				shipped += int64(spill.NumRows())
				final.AddPartial(spill)
			}
		}
		if tail := agg.Flush(); tail != nil {
			shipped += int64(tail.NumRows())
			final.AddPartial(tail)
		}
		// Exactness across budgets.
		var total int64
		result := final.Result()
		for i := 0; i < result.NumRows(); i++ {
			total += result.Col(1).Int64s()[i]
		}
		if exactCount == -1 {
			exactCount = total
		} else if total != exactCount {
			return nil, fmt.Errorf("experiments: A4 budget %d changed the answer", budget)
		}
		label := budget
		if budget == 0 {
			label = -1 // unbounded
		}
		name := d(int64(budget))
		if budget == 0 {
			name = "unbounded"
		}
		res.add(A4Row{BudgetGroups: label, ShippedRows: shipped}, name, d(shipped))
	}
	return res, nil
}
