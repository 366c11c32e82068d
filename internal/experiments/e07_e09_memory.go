package experiments

import (
	"fmt"

	"repro/internal/expr"
	"repro/internal/fabric"
	"repro/internal/interconnect"
	"repro/internal/memdev"
	"repro/internal/sim"
	"repro/internal/workload"
)

// E7Row is one selectivity point of the near-memory filter sweep.
type E7Row struct {
	Selectivity float64   `col:"selectivity,pct"`
	CPUBytes    sim.Bytes `col:"cpu-path bytes"`
	NearBytes   sim.Bytes `col:"near-path bytes"`
	CPUTime     sim.VTime `col:"cpu-path time"`
	NearTime    sim.VTime `col:"near-path time"`
}

// E7NearMemoryFilter reproduces Figure 5 / Section 5.2: filtering at the
// memory controller moves only survivors into the cache hierarchy; the
// advantage grows as selectivity drops, bounded by the accelerator's
// stream rate.
func E7NearMemoryFilter(rows int, selectivities []float64, compressed bool) (*Result[E7Row], error) {
	data := workload.GenKV(workload.KVConfig{Rows: rows, Keys: 1000, Seed: 21})
	dram := fabric.NewMemory("dram")
	accel := fabric.NewNearMemoryAccel("nma")
	cpu := fabric.NewCPU("cpu", 1)
	link := &fabric.Link{Name: "dram--cpu", A: "dram", B: "cpu",
		Bandwidth: fabric.CoreMemBandwidth, Latency: fabric.DDRLatency}
	mem := memdev.New("mem0", dram, accel)
	mem.Store("t", data, compressed)

	title := "Near-memory filtering (Figure 5): bytes entering caches vs selectivity"
	if compressed {
		title = "Near-memory filtering, compressed-resident data (Section 5.4 decompress-on-demand)"
	}
	res := newResult[E7Row]("E7", title, "")
	for _, sel := range selectivities {
		hi := int64(float64(1000)*sel) - 1
		if hi < 0 {
			hi = 0
		}
		pred := expr.NewBetween(0, 0, hi)
		cpuOut, cpuStats, err := mem.FilterToCPU("t", pred, link, cpu)
		if err != nil {
			return nil, err
		}
		nearOut, nearStats, err := mem.FilterNear("t", pred, link)
		if err != nil {
			return nil, err
		}
		if cpuOut.NumRows() != nearOut.NumRows() {
			return nil, fmt.Errorf("experiments: E7 paths disagree (%d vs %d rows)", cpuOut.NumRows(), nearOut.NumRows())
		}
		res.put(E7Row{
			Selectivity: sel,
			CPUBytes:    cpuStats.BytesMoved,
			NearBytes:   nearStats.BytesMoved,
			CPUTime:     cpuStats.Time,
			NearTime:    nearStats.Time,
		})
	}
	return res, nil
}

// E8Row is one tree-size point of the pointer-chase sweep.
type E8Row struct {
	Keys      int       `col:"keys"`
	Depth     int       `col:"depth"`
	CPUTime   sim.VTime `col:"cpu time"`
	NearTime  sim.VTime `col:"near time"`
	CPUBytes  sim.Bytes `col:"cpu bytes"`
	NearBytes sim.Bytes `col:"near bytes"`
}

// E8PointerChase reproduces Section 5.4's pointer-chasing unit: the
// accelerator walks the hierarchy at DRAM latency and ships one leaf
// entry; the CPU pays a full link round trip per level. The gap widens
// with depth and with link latency (remote memory).
func E8PointerChase(sizes []int, remote bool) (*Result[E8Row], error) {
	latency := fabric.DDRLatency
	bw := fabric.CoreMemBandwidth
	where := "local DRAM"
	if remote {
		latency = fabric.RDMALatency
		bw = sim.GbitPerSec(400)
		where = "disaggregated memory (RDMA)"
	}
	res := newResult[E8Row]("E8", "Pointer chasing (Section 5.4) on "+where,
		"CPU pays one round trip per level; the near unit ships only the 16B leaf entry")
	for _, n := range sizes {
		keys := make([]int64, n)
		vals := make([]int64, n)
		for i := range keys {
			keys[i] = int64(i)
			vals[i] = int64(i) * 3
		}
		tree, err := memdev.BuildPointerTree(keys, vals, 16)
		if err != nil {
			return nil, err
		}
		dram := fabric.NewMemory("dram")
		accel := fabric.NewNearMemoryAccel("nma")
		cpu := fabric.NewCPU("cpu", 1)
		link := &fabric.Link{Name: "mem--cpu", A: "m", B: "c", Bandwidth: bw, Latency: latency}
		mem := memdev.New("mem0", dram, accel)

		probe := int64(n / 2)
		vCPU, okCPU, cpuStats := tree.LookupCPU(probe, link, cpu)
		vNear, okNear, nearStats, err := tree.LookupNear(probe, mem, link)
		if err != nil {
			return nil, err
		}
		if !okCPU || !okNear || vCPU != vNear {
			return nil, fmt.Errorf("experiments: E8 lookups disagree")
		}
		res.put(E8Row{
			Keys: n, Depth: tree.Depth(),
			CPUTime: cpuStats.Time, NearTime: nearStats.Time,
			CPUBytes: cpuStats.BytesMoved, NearBytes: nearStats.BytesMoved,
		})
	}
	return res, nil
}

// E9Row is one generation point of the interconnect sweep.
type E9Row struct {
	Generation string    `col:"interconnect"`
	SWTime     sim.VTime `col:"sw time"`
	HWTime     sim.VTime `col:"hw time"`
	SWBytes    sim.Bytes `col:"sw bytes"`
	HWBytes    sim.Bytes `col:"hw bytes"`
	HWHits     int64     `col:"hw hits"`
	SWMsgs     int64     `col:"sw msgs"`
	HWMsgs     int64     `col:"hw msgs"`
}

// E9CXLCoherency reproduces Section 6: the same shared-region workload
// under software (RDMA) coherence and hardware (cxl.cache) coherence,
// swept across interconnect generations. Hardware coherency converts
// repeat reads into local hits and writes into per-sharer invalidations.
func E9CXLCoherency(accesses int, writeFrac float64) (*Result[E9Row], error) {
	res := newResult[E9Row]("E9",
		fmt.Sprintf("Coherency protocols (Section 6), %d accesses, %.0f%% writes", accesses, writeFrac*100),
		"software: every read is an RDMA read, every write a lock round trip; hardware: cached reads, invalidation messages")
	gens := []fabric.LinkKind{fabric.LinkPCIe3, fabric.LinkPCIe4, fabric.LinkPCIe5, fabric.LinkCXL, fabric.LinkPCIe6, fabric.LinkPCIe7}
	agents := []string{"cpu", "nma", "nic", "ssd"}
	for _, gen := range gens {
		var row E9Row
		row.Generation = gen.String()
		for _, mode := range []interconnect.Mode{interconnect.SoftwareRDMA, interconnect.HardwareCXL} {
			link, err := interconnect.NewHostLink(gen)
			if err != nil {
				return nil, err
			}
			dom := interconnect.NewDomain(mode, link)
			rng := sim.NewRNG(77)
			var total interconnect.AccessStats
			for i := 0; i < accesses; i++ {
				agent := agents[rng.Intn(len(agents))]
				line := int64(rng.Intn(32))
				if rng.Float64() < writeFrac {
					total.Add(dom.Write(agent, line, int64(i)))
				} else {
					_, st := dom.Read(agent, line)
					total.Add(st)
				}
			}
			if mode == interconnect.SoftwareRDMA {
				row.SWTime, row.SWBytes, row.SWMsgs = total.Time, total.Bytes, total.Messages
			} else {
				row.HWTime, row.HWBytes, row.HWMsgs = total.Time, total.Bytes, total.Messages
				row.HWHits = total.Hits
			}
		}
		res.put(row)
	}
	return res, nil
}
