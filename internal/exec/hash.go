// Package exec implements the engine's operators once, for both
// execution models the paper contrasts: streaming stages that the flow
// runtime pushes batches through on any device along the data path
// (storage processors, NICs, near-memory accelerators, CPUs), and that
// Pull drives batch by batch for the pull-based Volcano baseline
// (Section 1's "pull-based Volcano model") on the compute node's CPU.
package exec

import (
	"math/bits"

	"repro/internal/columnar"
)

// hashSeed decorrelates hash uses (partitioning vs join) so that
// partition-by-key followed by hash-join-by-key does not degenerate.
type hashSeed uint64

// Hash seeds for the engine's two distinct uses.
const (
	SeedPartition hashSeed = 0x9E3779B97F4A7C15
	SeedJoin      hashSeed = 0xC2B2AE3D27D4EB4F
)

// mix64 is the splitmix64 finalizer, a strong cheap mixer for 64-bit
// values.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// hashString is FNV-1a over the string bytes followed by an avalanche.
func hashString(s string, seed hashSeed) uint64 {
	h := uint64(14695981039346656037) ^ uint64(seed)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return mix64(h)
}

// HashValue hashes one value of a key column with the given seed. NULLs
// hash to a fixed bucket.
func HashValue(col *columnar.Vector, row int, seed hashSeed) uint64 {
	if col.IsNull(row) {
		return mix64(uint64(seed) ^ 0xDEAD)
	}
	switch col.Type() {
	case columnar.Int64:
		return mix64(uint64(col.Int64s()[row]) ^ uint64(seed))
	case columnar.Float64:
		return mix64(uint64(int64(col.Float64s()[row]*1024)) ^ uint64(seed))
	case columnar.String:
		return hashString(col.StringAt(row), seed)
	case columnar.Bool:
		v := uint64(0)
		if col.Bools()[row] {
			v = 1
		}
		return mix64(v ^ uint64(seed))
	}
	return 0
}

// HashColumn hashes every row of a key column into dst (resized as
// needed) and returns it.
func HashColumn(col *columnar.Vector, seed hashSeed, dst []uint64) []uint64 {
	n := col.Len()
	if cap(dst) < n {
		dst = make([]uint64, n)
	}
	dst = dst[:n]
	for i := 0; i < n; i++ {
		dst[i] = HashValue(col, i, seed)
	}
	return dst
}

// PartitionOf maps a hash to one of n partitions using the fast-range
// reduction (unbiased for n ≪ 2^32, unlike modulo of a power of two).
func PartitionOf(h uint64, n int) int {
	hi, _ := bits.Mul64(h, uint64(n))
	return int(hi)
}
