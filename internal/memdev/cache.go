package memdev

import (
	"fmt"

	"repro/internal/sim"
)

// This file models the paper's Section 5.1: CPUs hide the DRAM gap
// behind layered caches and TLBs, and database access patterns defeat
// them — cache and TLB faults stall the cores. The Hierarchy is a
// set-associative, LRU, inclusive three-level cache plus a TLB, accessed
// by virtual address. Experiments drive it with sequential and random
// patterns and report where the cycles went; the near-memory path's
// payoff is that filtered-out bytes never enter the hierarchy at all.

// CacheLevel is one set-associative cache (or TLB, with LineSize = page
// size).
type CacheLevel struct {
	Name       string
	Sets       int
	Ways       int
	LineSize   int64
	HitLatency sim.VTime

	Hits   int64
	Misses int64

	tags [][]cacheWay
	tick uint64
}

type cacheWay struct {
	tag   int64
	valid bool
	used  uint64 // LRU timestamp
}

// NewCacheLevel builds a level. Sets must be a power of two.
func NewCacheLevel(name string, sets, ways int, lineSize int64, hitLatency sim.VTime) *CacheLevel {
	if sets <= 0 || sets&(sets-1) != 0 {
		panic(fmt.Sprintf("memdev: cache sets %d not a power of two", sets))
	}
	if ways <= 0 || lineSize <= 0 {
		panic("memdev: invalid cache geometry")
	}
	c := &CacheLevel{Name: name, Sets: sets, Ways: ways, LineSize: lineSize, HitLatency: hitLatency}
	c.tags = make([][]cacheWay, sets)
	for i := range c.tags {
		c.tags[i] = make([]cacheWay, ways)
	}
	return c
}

// lookup probes the cache; on hit the line's LRU stamp refreshes.
func (c *CacheLevel) lookup(addr int64) bool {
	c.tick++
	line := addr / c.LineSize
	set := line & int64(c.Sets-1)
	tag := line >> uint(bitsOf(c.Sets))
	for i := range c.tags[set] {
		w := &c.tags[set][i]
		if w.valid && w.tag == tag {
			w.used = c.tick
			c.Hits++
			return true
		}
	}
	c.Misses++
	return false
}

// fill installs the line, evicting the LRU way.
func (c *CacheLevel) fill(addr int64) {
	line := addr / c.LineSize
	set := line & int64(c.Sets-1)
	tag := line >> uint(bitsOf(c.Sets))
	victim := 0
	for i := range c.tags[set] {
		w := &c.tags[set][i]
		if !w.valid {
			victim = i
			break
		}
		if w.used < c.tags[set][victim].used {
			victim = i
		}
	}
	c.tags[set][victim] = cacheWay{tag: tag, valid: true, used: c.tick}
}

// Reset clears contents and counters.
func (c *CacheLevel) Reset() {
	for i := range c.tags {
		for j := range c.tags[i] {
			c.tags[i][j] = cacheWay{}
		}
	}
	c.Hits, c.Misses, c.tick = 0, 0, 0
}

func bitsOf(v int) int {
	n := 0
	for v > 1 {
		v >>= 1
		n++
	}
	return n
}

// Hierarchy is the CPU-side cache stack: L1, L2, LLC (inclusive) plus a
// TLB, with a flat DRAM behind it.
type Hierarchy struct {
	Levels []*CacheLevel
	TLB    *CacheLevel
	// MemLatency is the DRAM access cost on an all-level miss.
	MemLatency sim.VTime
	// WalkLatency is the page-table walk cost on a TLB miss.
	WalkLatency sim.VTime

	Accesses  int64
	StallTime sim.VTime // time beyond L1 hits — what the paper calls stalls
	TotalTime sim.VTime
}

// NewDefaultHierarchy builds a contemporary three-level stack:
// 48 KiB/12-way L1 (1 ns), 1 MiB/16-way L2 (4 ns), 32 MiB/16-way LLC
// (14 ns), 2048-entry 4 KiB-page TLB, 100 ns DRAM, 60 ns walk.
func NewDefaultHierarchy() *Hierarchy {
	return &Hierarchy{
		Levels: []*CacheLevel{
			NewCacheLevel("L1", 64, 12, 64, 1*sim.Nanosecond),
			NewCacheLevel("L2", 1024, 16, 64, 4*sim.Nanosecond),
			NewCacheLevel("LLC", 32768, 16, 64, 14*sim.Nanosecond),
		},
		TLB:         NewCacheLevel("TLB", 512, 4, 4096, 0),
		MemLatency:  100 * sim.Nanosecond,
		WalkLatency: 60 * sim.Nanosecond,
	}
}

// Access touches one byte address and returns the access latency.
func (h *Hierarchy) Access(addr int64) sim.VTime {
	h.Accesses++
	var t sim.VTime
	if !h.TLB.lookup(addr) {
		h.TLB.fill(addr)
		t += h.WalkLatency
	}
	hitLevel := -1
	for i, lvl := range h.Levels {
		t += lvl.HitLatency
		if lvl.lookup(addr) {
			hitLevel = i
			break
		}
	}
	if hitLevel == -1 {
		t += h.MemLatency
	}
	// Fill every level above (and including) the miss point — the
	// inclusive-hierarchy simplification.
	limit := hitLevel
	if limit == -1 {
		limit = len(h.Levels)
	}
	for i := 0; i < limit; i++ {
		h.Levels[i].fill(addr)
	}
	h.TotalTime += t
	if hitLevel != 0 {
		h.StallTime += t - h.Levels[0].HitLatency
	}
	return t
}

// ScanSequential touches a region of n bytes with stride-1 reads at
// word granularity (8 bytes), starting at base.
func (h *Hierarchy) ScanSequential(base, n int64) sim.VTime {
	var total sim.VTime
	for off := int64(0); off < n; off += 8 {
		total += h.Access(base + off)
	}
	return total
}

// ScanRandom touches count word addresses uniformly within [base,
// base+n), the pointer-chasing/hash-probe pattern that defeats caches
// and TLBs.
func (h *Hierarchy) ScanRandom(rng *sim.RNG, base, n int64, count int) sim.VTime {
	var total sim.VTime
	for i := 0; i < count; i++ {
		total += h.Access(base + rng.Int63n(n/8)*8)
	}
	return total
}

// StallShare reports stall time / total time.
func (h *Hierarchy) StallShare() float64 {
	if h.TotalTime == 0 {
		return 0
	}
	return float64(h.StallTime) / float64(h.TotalTime)
}

// ResetStats clears counters but keeps cache contents (for warm-phase
// measurements); Reset clears everything.
func (h *Hierarchy) ResetStats() {
	h.Accesses, h.StallTime, h.TotalTime = 0, 0, 0
	for _, l := range h.Levels {
		l.Hits, l.Misses = 0, 0
	}
	h.TLB.Hits, h.TLB.Misses = 0, 0
}

// Reset clears counters and contents.
func (h *Hierarchy) Reset() {
	h.ResetStats()
	for _, l := range h.Levels {
		l.Reset()
	}
	h.TLB.Reset()
}
