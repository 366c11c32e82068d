// Package interconnect models the paper's Section 6: PCIe-family links
// and what CXL adds on top of them — hardware cache coherency. A Domain
// is a shared memory region accessed by several agents (CPU cores,
// near-memory accelerators, NICs) across a link; the same access
// sequence can be run under software coherence (RDMA-style lock/read/
// write round trips, no safe caching) or hardware coherence (cxl.cache:
// local hits, per-sharer invalidation messages), and the meters show the
// difference the paper predicts.
package interconnect

import (
	"fmt"
	"sync"

	"repro/internal/fabric"
	"repro/internal/sim"
)

// Mode selects the coherency protocol.
type Mode uint8

// Coherency modes.
const (
	// SoftwareRDMA models coherence maintained by software over
	// one-sided RDMA (Section 6.2): agents cannot safely cache shared
	// lines, writes take a lock round trip.
	SoftwareRDMA Mode = iota
	// HardwareCXL models cxl.cache (Section 6.2-6.3): agents cache
	// lines; the hardware invalidates sharers on writes.
	HardwareCXL
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case SoftwareRDMA:
		return "software-rdma"
	case HardwareCXL:
		return "hardware-cxl"
	}
	return fmt.Sprintf("Mode(%d)", uint8(m))
}

// CacheLine is the coherency granule.
const CacheLine = sim.Bytes(64)

// AccessStats summarizes one access or a sequence of accesses.
type AccessStats struct {
	Time     sim.VTime
	Bytes    sim.Bytes // payload bytes across the link
	Messages int64     // protocol messages (locks, invalidations)
	Hits     int64     // local cache hits (hardware mode only)
}

// Add accumulates another stats value.
func (s *AccessStats) Add(o AccessStats) {
	s.Time += o.Time
	s.Bytes += o.Bytes
	s.Messages += o.Messages
	s.Hits += o.Hits
}

// Domain is one coherent (or software-coordinated) shared region.
type Domain struct {
	Mode Mode
	Link *fabric.Link

	mu       sync.Mutex
	versions map[int64]uint64            // line -> current version
	values   map[int64]int64             // line -> current value (for correctness checks)
	cached   map[string]map[int64]uint64 // agent -> line -> cached version
	cachedV  map[string]map[int64]int64  // agent -> line -> cached value
}

// NewDomain builds a shared region over link in the given mode.
func NewDomain(mode Mode, link *fabric.Link) *Domain {
	return &Domain{
		Mode:     mode,
		Link:     link,
		versions: make(map[int64]uint64),
		values:   make(map[int64]int64),
		cached:   make(map[string]map[int64]uint64),
		cachedV:  make(map[string]map[int64]int64),
	}
}

func (d *Domain) agentCache(agent string) (map[int64]uint64, map[int64]int64) {
	c, ok := d.cached[agent]
	if !ok {
		c = make(map[int64]uint64)
		d.cached[agent] = c
	}
	v, ok := d.cachedV[agent]
	if !ok {
		v = make(map[int64]int64)
		d.cachedV[agent] = v
	}
	return c, v
}

// Read returns the current value of line as seen by agent, charging the
// protocol cost of getting it there.
func (d *Domain) Read(agent string, line int64) (int64, AccessStats) {
	d.mu.Lock()
	defer d.mu.Unlock()
	var st AccessStats
	switch d.Mode {
	case HardwareCXL:
		cache, cacheV := d.agentCache(agent)
		if ver, ok := cache[line]; ok && ver == d.versions[line] {
			// Local hit: the line is valid in the agent's cache.
			st.Hits++
			st.Time += fabric.OnChipLatency
			return cacheV[line], st
		}
		// Miss: fetch the line across the link and start sharing it.
		st.Time += d.Link.Transfer(CacheLine)
		st.Bytes += CacheLine
		cache[line] = d.versions[line]
		cacheV[line] = d.values[line]
		return d.values[line], st
	default: // SoftwareRDMA
		// No safe caching: every read is a one-sided RDMA read.
		st.Time += d.Link.Transfer(CacheLine)
		st.Bytes += CacheLine
		return d.values[line], st
	}
}

// Write stores value into line on behalf of agent, charging the
// protocol cost of making the write visible.
func (d *Domain) Write(agent string, line int64, value int64) AccessStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	var st AccessStats
	switch d.Mode {
	case HardwareCXL:
		// The hardware invalidates every other sharer with one
		// cxl.cache message each (Section 6.2's example of the
		// accelerator updating a tuple).
		for other, cache := range d.cached {
			if other == agent {
				continue
			}
			if _, sharing := cache[line]; sharing {
				delete(cache, line)
				delete(d.cachedV[other], line)
				st.Time += d.Link.Message()
				st.Messages++
			}
		}
		st.Time += d.Link.Transfer(CacheLine)
		st.Bytes += CacheLine
		d.versions[line]++
		d.values[line] = value
		cache, cacheV := d.agentCache(agent)
		cache[line] = d.versions[line]
		cacheV[line] = value
		return st
	default: // SoftwareRDMA
		// Lock acquire (round trip), RDMA write, unlock (one-way).
		st.Time += d.Link.Message() // lock request
		st.Time += d.Link.Message() // lock grant
		st.Time += d.Link.Transfer(CacheLine)
		st.Time += d.Link.Message() // unlock
		st.Messages += 3
		st.Bytes += CacheLine
		d.versions[line]++
		d.values[line] = value
		return st
	}
}

// NewHostLink builds a host link of the given interconnect generation,
// for the Section 6.2 bandwidth sweep (PCIe 3 through 7 and CXL).
func NewHostLink(kind fabric.LinkKind) (*fabric.Link, error) {
	bw, ok := fabric.PCIeBandwidth[kind]
	if !ok {
		return nil, fmt.Errorf("interconnect: %v is not a PCIe/CXL generation", kind)
	}
	lat := fabric.PCIeLatency
	if kind == fabric.LinkCXL {
		lat = fabric.CXLLatency
	}
	return &fabric.Link{
		Name: "host-" + kind.String(), Kind: kind, A: "host", B: "device",
		Bandwidth: bw, Latency: lat,
	}, nil
}
