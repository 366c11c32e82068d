package memdev

import (
	"testing"

	"repro/internal/sim"
)

// CapacityBytes reports the level's total capacity.
func (c *CacheLevel) CapacityBytes() sim.Bytes {
	return sim.Bytes(int64(c.Sets) * int64(c.Ways) * c.LineSize)
}

func TestCacheLevelBasics(t *testing.T) {
	c := NewCacheLevel("t", 4, 2, 64, sim.Nanosecond)
	if c.CapacityBytes() != 4*2*64 {
		t.Errorf("capacity = %v", c.CapacityBytes())
	}
	if c.lookup(0) {
		t.Error("cold cache hit")
	}
	c.fill(0)
	if !c.lookup(0) {
		t.Error("filled line missed")
	}
	if !c.lookup(63) {
		t.Error("same line, different byte missed")
	}
	if c.lookup(64) {
		t.Error("next line hit without fill")
	}
	if c.Hits != 2 || c.Misses != 2 {
		t.Errorf("hits/misses = %d/%d", c.Hits, c.Misses)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	// 1 set x 2 ways, 64B lines; addresses 0, 256, 512 all map to set 0.
	c := NewCacheLevel("t", 1, 2, 64, 0)
	c.fill(0)
	c.fill(256)
	c.lookup(0) // refresh 0
	c.fill(512) // must evict 256 (LRU)
	if !c.lookup(0) {
		t.Error("recently used line evicted")
	}
	if c.lookup(256) {
		t.Error("LRU line survived")
	}
	if !c.lookup(512) {
		t.Error("just-filled line missing")
	}
}

func TestCacheGeometryValidation(t *testing.T) {
	for _, f := range []func(){
		func() { NewCacheLevel("x", 3, 2, 64, 0) }, // non-power-of-two sets
		func() { NewCacheLevel("x", 4, 0, 64, 0) }, // no ways
		func() { NewCacheLevel("x", 4, 2, 0, 0) },  // no line size
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("bad geometry accepted")
				}
			}()
			f()
		}()
	}
}

func TestHierarchySequentialLocality(t *testing.T) {
	h := NewDefaultHierarchy()
	// Sequential word scan: 7 of 8 accesses hit the L1 line already
	// fetched.
	h.ScanSequential(0, 1<<20)
	l1 := h.Levels[0]
	hitRate := float64(l1.Hits) / float64(l1.Hits+l1.Misses)
	if hitRate < 0.85 {
		t.Errorf("sequential L1 hit rate %.2f, want ~0.875", hitRate)
	}
}

func TestHierarchyWorkingSetLevels(t *testing.T) {
	h := NewDefaultHierarchy()
	rng := sim.NewRNG(1)
	// Tiny working set (16 KiB): after warmup, random accesses are L1
	// hits with near-zero stall share.
	h.ScanRandom(rng, 0, 16<<10, 20000)
	h.ResetStats()
	h.ScanRandom(rng, 0, 16<<10, 20000)
	smallStall := h.StallShare()

	h.Reset()
	// Huge working set (256 MiB): nearly every access walks to DRAM.
	h.ScanRandom(rng, 0, 256<<20, 20000)
	h.ResetStats()
	h.ScanRandom(rng, 0, 256<<20, 20000)
	bigStall := h.StallShare()

	if smallStall > 0.3 {
		t.Errorf("L1-resident stall share %.2f, want small", smallStall)
	}
	if bigStall < 0.8 {
		t.Errorf("DRAM-bound stall share %.2f, want ~1", bigStall)
	}
}

func TestHierarchyTLBMisses(t *testing.T) {
	h := NewDefaultHierarchy()
	rng := sim.NewRNG(2)
	// TLB covers 512*4*4KiB = 8 MiB; a 512 MiB working set must thrash
	// it.
	h.ScanRandom(rng, 0, 512<<20, 30000)
	tlbMissRate := float64(h.TLB.Misses) / float64(h.TLB.Hits+h.TLB.Misses)
	if tlbMissRate < 0.5 {
		t.Errorf("TLB miss rate %.2f over 512MiB, want high", tlbMissRate)
	}
	// And a small set must not.
	h.Reset()
	h.ScanRandom(rng, 0, 1<<20, 30000)
	tlbMissRate = float64(h.TLB.Misses) / float64(h.TLB.Hits+h.TLB.Misses)
	if tlbMissRate > 0.05 {
		t.Errorf("TLB miss rate %.2f over 1MiB, want tiny", tlbMissRate)
	}
}

func TestHierarchyAccessLatencyOrdering(t *testing.T) {
	h := NewDefaultHierarchy()
	cold := h.Access(1 << 30) // full miss
	warm := h.Access(1 << 30) // L1 hit
	if warm >= cold {
		t.Errorf("warm access %v >= cold %v", warm, cold)
	}
	if warm != h.Levels[0].HitLatency {
		t.Errorf("warm access %v, want L1 latency", warm)
	}
}

func TestHierarchyResetAndStats(t *testing.T) {
	h := NewDefaultHierarchy()
	h.ScanSequential(0, 1<<16)
	if h.Accesses == 0 || h.TotalTime == 0 {
		t.Fatal("no accounting")
	}
	h.Reset()
	if h.Accesses != 0 || h.StallShare() != 0 || h.Levels[0].Hits != 0 {
		t.Error("Reset incomplete")
	}
}
