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
	Selectivity float64
	CPUBytes    sim.Bytes
	NearBytes   sim.Bytes
	CPUTime     sim.VTime
	NearTime    sim.VTime
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
	res := &Result[E7Row]{Table: &Table{
		ID:     "E7",
		Title:  title,
		Header: []string{"selectivity", "cpu-path bytes", "near-path bytes", "cpu-path time", "near-path time"},
	}}
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
		row := E7Row{
			Selectivity: sel,
			CPUBytes:    cpuStats.BytesMoved,
			NearBytes:   nearStats.BytesMoved,
			CPUTime:     cpuStats.Time,
			NearTime:    nearStats.Time,
		}
		res.add(row, fmt.Sprintf("%.1f%%", sel*100),
			row.CPUBytes.String(), row.NearBytes.String(),
			row.CPUTime.String(), row.NearTime.String())
	}
	return res, nil
}

// E8Row is one tree-size point of the pointer-chase sweep.
type E8Row struct {
	Keys      int
	Depth     int
	CPUTime   sim.VTime
	NearTime  sim.VTime
	CPUBytes  sim.Bytes
	NearBytes sim.Bytes
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
	res := &Result[E8Row]{Table: &Table{
		ID:     "E8",
		Title:  "Pointer chasing (Section 5.4) on " + where,
		Header: []string{"keys", "depth", "cpu time", "near time", "cpu bytes", "near bytes"},
		Notes:  "CPU pays one round trip per level; the near unit ships only the 16B leaf entry",
	}}
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
		row := E8Row{
			Keys: n, Depth: tree.Depth(),
			CPUTime: cpuStats.Time, NearTime: nearStats.Time,
			CPUBytes: cpuStats.BytesMoved, NearBytes: nearStats.BytesMoved,
		}
		res.add(row, d(int64(n)), d(int64(row.Depth)),
			row.CPUTime.String(), row.NearTime.String(),
			row.CPUBytes.String(), row.NearBytes.String())
	}
	return res, nil
}

// E9Row is one generation point of the interconnect sweep.
type E9Row struct {
	Generation string
	SWTime     sim.VTime
	HWTime     sim.VTime
	SWBytes    sim.Bytes
	HWBytes    sim.Bytes
	HWHits     int64
	SWMsgs     int64
	HWMsgs     int64
}

// E9CXLCoherency reproduces Section 6: the same shared-region workload
// under software (RDMA) coherence and hardware (cxl.cache) coherence,
// swept across interconnect generations. Hardware coherency converts
// repeat reads into local hits and writes into per-sharer invalidations.
func E9CXLCoherency(accesses int, writeFrac float64) (*Result[E9Row], error) {
	res := &Result[E9Row]{Table: &Table{
		ID:     "E9",
		Title:  fmt.Sprintf("Coherency protocols (Section 6), %d accesses, %.0f%% writes", accesses, writeFrac*100),
		Header: []string{"interconnect", "sw time", "hw time", "sw bytes", "hw bytes", "hw hits", "sw msgs", "hw msgs"},
		Notes:  "software: every read is an RDMA read, every write a lock round trip; hardware: cached reads, invalidation messages",
	}}
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
		res.add(row, row.Generation,
			row.SWTime.String(), row.HWTime.String(),
			row.SWBytes.String(), row.HWBytes.String(),
			d(row.HWHits), d(row.SWMsgs), d(row.HWMsgs))
	}
	return res, nil
}
