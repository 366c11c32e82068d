// Package memdev models the paper's Section 5: the relationship between
// memory and processing. It provides memory regions that can be resident
// in DRAM (optionally compressed), a near-memory accelerator interposed
// between the memory controller and the CPU (Figure 5), and the
// functional units Section 5.4 proposes for it: filtering,
// decompress-on-demand, pointer chasing, data transposition, and list
// maintenance primitives.
//
// Every operation exists in two variants — the CPU-centric path (all
// bytes cross the memory->CPU boundary before being examined) and the
// near-memory path (the accelerator reduces data before it moves) — so
// experiments can compare them directly.
package memdev

import (
	"fmt"
	"sync"

	"repro/internal/columnar"
	"repro/internal/encoding"
	"repro/internal/expr"
	"repro/internal/fabric"
	"repro/internal/sim"
)

// Region is one named dataset resident in a memory device.
type Region struct {
	Name       string
	Batch      *columnar.Batch           // decoded contents
	Encoded    []*encoding.EncodedColumn // set when Compressed
	Compressed bool
}

// DecodedBytes is the region's uncompressed footprint.
func (r *Region) DecodedBytes() sim.Bytes { return sim.Bytes(r.Batch.ByteSize()) }

// StoredBytes is the footprint actually occupying DRAM: encoded when the
// region is kept compressed in memory (Section 5.4's decompress-on-demand
// proposal), decoded otherwise.
func (r *Region) StoredBytes() sim.Bytes {
	if !r.Compressed {
		return r.DecodedBytes()
	}
	var n int64
	for _, c := range r.Encoded {
		n += c.EncodedSize()
	}
	return sim.Bytes(n)
}

// Memory is one memory device (a local DIMM set or a disaggregated
// memory node) with an optional near-memory accelerator.
type Memory struct {
	Name  string
	DRAM  *fabric.Device // the passive memory device
	Accel *fabric.Device // near-memory accelerator; nil when absent

	mu      sync.RWMutex
	regions map[string]*Region
}

// New builds a memory over the given devices. accel may be nil.
func New(name string, dram, accel *fabric.Device) *Memory {
	return &Memory{Name: name, DRAM: dram, Accel: accel, regions: make(map[string]*Region)}
}

// Store makes batch resident under name. When compressed is set, the
// region is kept encoded in DRAM and decompressed on demand.
func (m *Memory) Store(name string, batch *columnar.Batch, compressed bool) *Region {
	r := &Region{Name: name, Batch: batch, Compressed: compressed}
	if compressed {
		r.Encoded = make([]*encoding.EncodedColumn, batch.NumCols())
		for i := 0; i < batch.NumCols(); i++ {
			r.Encoded[i] = encoding.EncodeColumn(batch.Col(i))
		}
	}
	m.mu.Lock()
	m.regions[name] = r
	m.mu.Unlock()
	return r
}

// Region returns the named region, or an error.
func (m *Memory) Region(name string) (*Region, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	r, ok := m.regions[name]
	if !ok {
		return nil, fmt.Errorf("memdev: region %q not resident in %s", name, m.Name)
	}
	return r, nil
}

// AccessStats reports what one memory operation moved and cost.
type AccessStats struct {
	BytesMoved sim.Bytes // bytes that crossed the memory->consumer link
	Time       sim.VTime // total virtual time of the operation
}

// FilterToCPU is the CPU-centric path of Figure 5: the full region
// streams over link into the cache hierarchy, where cpu evaluates pred.
// The returned batch contains the surviving rows.
func (m *Memory) FilterToCPU(name string, pred expr.Predicate, link *fabric.Link, cpu *fabric.Device) (*columnar.Batch, AccessStats, error) {
	var st AccessStats
	r, err := m.Region(name)
	if err != nil {
		return nil, st, err
	}
	batch := r.Batch
	moved := r.StoredBytes()
	st.Time += link.Transfer(moved)
	st.BytesMoved = moved
	if r.Compressed {
		// The CPU must decompress before it can filter.
		st.Time += cpu.Charge(fabric.OpDecompress, moved)
	}
	st.Time += cpu.Charge(fabric.OpFilter, r.DecodedBytes())
	out := batch.Filter(pred.Eval(batch))
	return out, st, nil
}

// FilterNear is the near-memory path: the accelerator streams the region
// at controller bandwidth, decompressing on demand if needed, and only
// survivors cross the link toward the CPU.
func (m *Memory) FilterNear(name string, pred expr.Predicate, link *fabric.Link) (*columnar.Batch, AccessStats, error) {
	var st AccessStats
	if m.Accel == nil {
		return nil, st, fmt.Errorf("memdev: %s has no near-memory accelerator", m.Name)
	}
	r, err := m.Region(name)
	if err != nil {
		return nil, st, err
	}
	st.Time += m.Accel.ChargeSetup()
	if r.Compressed {
		st.Time += m.Accel.Charge(fabric.OpDecompress, r.StoredBytes())
	}
	st.Time += m.Accel.Charge(fabric.OpFilter, r.DecodedBytes())
	out := r.Batch.Filter(pred.Eval(r.Batch))
	moved := sim.Bytes(out.ByteSize())
	st.Time += link.Transfer(moved)
	st.BytesMoved = moved
	return out, st, nil
}

// TransposeToRows converts a resident columnar region to row-major form,
// either on the accelerator (near == true) or by pulling everything to
// the CPU — the HTAP format-conversion unit of Section 5.4.
func (m *Memory) TransposeToRows(name string, near bool, link *fabric.Link, cpu *fabric.Device) ([][]columnar.Value, AccessStats, error) {
	var st AccessStats
	r, err := m.Region(name)
	if err != nil {
		return nil, st, err
	}
	size := r.DecodedBytes()
	if near {
		if m.Accel == nil {
			return nil, st, fmt.Errorf("memdev: %s has no near-memory accelerator", m.Name)
		}
		st.Time += m.Accel.ChargeSetup()
		st.Time += m.Accel.Charge(fabric.OpTranspose, size)
		// Transposed data stays in memory; only a completion token moves.
		st.Time += link.Transfer(8)
		st.BytesMoved = 8
	} else {
		st.Time += link.Transfer(size)
		st.Time += cpu.Charge(fabric.OpTranspose, size)
		// The row image is written back across the link.
		st.Time += link.Transfer(size)
		st.BytesMoved = 2 * size
	}
	return r.Batch.RowMajor(), st, nil
}

// Compact removes dead rows from a region (GC-style list maintenance,
// Section 5.4), either on the accelerator or via the CPU. live marks the
// rows to keep.
func (m *Memory) Compact(name string, live *columnar.Bitmap, near bool, link *fabric.Link, cpu *fabric.Device) (AccessStats, error) {
	var st AccessStats
	r, err := m.Region(name)
	if err != nil {
		return st, err
	}
	if live.Len() != r.Batch.NumRows() {
		return st, fmt.Errorf("memdev: live bitmap covers %d rows, region has %d", live.Len(), r.Batch.NumRows())
	}
	size := r.DecodedBytes()
	if near {
		if m.Accel == nil {
			return st, fmt.Errorf("memdev: %s has no near-memory accelerator", m.Name)
		}
		st.Time += m.Accel.ChargeSetup()
		st.Time += m.Accel.Charge(fabric.OpListOps, size)
		st.Time += link.Transfer(8)
		st.BytesMoved = 8
	} else {
		st.Time += link.Transfer(size)
		st.Time += cpu.Charge(fabric.OpListOps, size)
		compacted := r.Batch.Filter(live)
		st.Time += link.Transfer(sim.Bytes(compacted.ByteSize()))
		st.BytesMoved = size + sim.Bytes(compacted.ByteSize())
	}
	r.Batch = r.Batch.Filter(live)
	if r.Compressed {
		for i := 0; i < r.Batch.NumCols(); i++ {
			r.Encoded[i] = encoding.EncodeColumn(r.Batch.Col(i))
		}
	}
	return st, nil
}
