package experiments

import (
	"fmt"

	"repro/internal/fabric"
	"repro/internal/memdev"
	"repro/internal/sim"
	"repro/internal/workload"
)

// E18Row is one region-size point of the HTAP transposition experiment.
type E18Row struct {
	Rows      int
	CPUBytes  sim.Bytes
	NearBytes sim.Bytes
	CPUTime   sim.VTime
	NearTime  sim.VTime
}

// E18Result carries the format-conversion comparison.
type E18Result struct {
	*Table
	Rows []E18Row
}

// E18HTAPTranspose reproduces Section 5.4's data-transposition unit:
// HTAP engines convert recent (row) data to historical (columnar) format
// and back; doing the conversion at the memory controller keeps both
// images in memory, while the CPU path drags the full region across the
// memory bus twice (read one format, write the other).
func E18HTAPTranspose(sizes []int) (*E18Result, error) {
	res := &E18Result{Table: &Table{
		ID:     "E18",
		Title:  "HTAP format transposition (Section 5.4): near-memory unit vs CPU",
		Header: []string{"rows", "cpu bytes", "near bytes", "cpu time", "near time"},
		Notes:  "CPU path moves the region twice (read + write back); the unit converts in place",
	}}
	for _, n := range sizes {
		data := workload.GenKV(workload.KVConfig{Rows: n, Keys: int64(n), Seed: 29})
		dram := fabric.NewMemory("dram")
		accel := fabric.NewNearMemoryAccel("nma")
		cpu := fabric.NewCPU("cpu", 1)
		link := &fabric.Link{Name: "dram--cpu", A: "dram", B: "cpu",
			Bandwidth: fabric.CoreMemBandwidth, Latency: fabric.DDRLatency}
		mem := memdev.New("mem0", dram, accel)
		mem.Store("t", data, false)

		rowsNear, nearStats, err := mem.TransposeToRows("t", true, link, cpu)
		if err != nil {
			return nil, err
		}
		rowsCPU, cpuStats, err := mem.TransposeToRows("t", false, link, cpu)
		if err != nil {
			return nil, err
		}
		if len(rowsNear) != n || len(rowsCPU) != n {
			return nil, fmt.Errorf("experiments: E18 row counts wrong (%d/%d of %d)", len(rowsNear), len(rowsCPU), n)
		}
		// Spot-check the conversions agree.
		for i := 0; i < n; i += n/7 + 1 {
			for c := range rowsNear[i] {
				if !rowsNear[i][c].Equal(rowsCPU[i][c]) {
					return nil, fmt.Errorf("experiments: E18 paths disagree at row %d", i)
				}
			}
		}
		row := E18Row{
			Rows:     n,
			CPUBytes: cpuStats.BytesMoved, NearBytes: nearStats.BytesMoved,
			CPUTime: cpuStats.Time, NearTime: nearStats.Time,
		}
		res.Rows = append(res.Rows, row)
		res.Table.AddRow(d(int64(n)),
			row.CPUBytes.String(), row.NearBytes.String(),
			row.CPUTime.String(), row.NearTime.String())
	}
	return res, nil
}
