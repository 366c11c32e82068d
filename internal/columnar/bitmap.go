package columnar

import "math/bits"

// Bitmap is a fixed-capacity bit set used for null tracking and selection
// vectors. The zero value is an empty bitmap of length zero; use NewBitmap
// to size one.
type Bitmap struct {
	words []uint64
	n     int
}

// NewBitmap returns a bitmap of n bits, all clear.
func NewBitmap(n int) *Bitmap {
	return &Bitmap{words: make([]uint64, (n+63)/64), n: n}
}

// Len reports the number of bits.
func (b *Bitmap) Len() int { return b.n }

// Set sets bit i.
func (b *Bitmap) Set(i int) { b.words[i>>6] |= 1 << (uint(i) & 63) }

// Get reports whether bit i is set.
func (b *Bitmap) Get(i int) bool { return b.words[i>>6]&(1<<(uint(i)&63)) != 0 }

// Count reports the number of set bits.
func (b *Bitmap) Count() int {
	c := 0
	for _, w := range b.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// And intersects b with other in place. Both must have the same length.
func (b *Bitmap) And(other *Bitmap) {
	if b.n != other.n {
		panic("columnar: Bitmap.And length mismatch")
	}
	for i := range b.words {
		b.words[i] &= other.words[i]
	}
}

// Or unions b with other in place. Both must have the same length.
func (b *Bitmap) Or(other *Bitmap) {
	if b.n != other.n {
		panic("columnar: Bitmap.Or length mismatch")
	}
	for i := range b.words {
		b.words[i] |= other.words[i]
	}
}

// AndNot clears every bit of b that is set in other (b &^= other).
// Both must have the same length.
func (b *Bitmap) AndNot(other *Bitmap) {
	if b.n != other.n {
		panic("columnar: Bitmap.AndNot length mismatch")
	}
	for i := range b.words {
		b.words[i] &^= other.words[i]
	}
}

// Fill sets every bit in [lo, hi). Bits outside the range are untouched.
func (b *Bitmap) Fill(lo, hi int) {
	if lo < 0 || hi > b.n || lo > hi {
		panic("columnar: Bitmap.Fill range out of bounds")
	}
	if lo == hi {
		return
	}
	first, last := lo>>6, (hi-1)>>6
	loMask := ^uint64(0) << (uint(lo) & 63)
	hiMask := ^uint64(0) >> (63 - (uint(hi-1) & 63))
	if first == last {
		b.words[first] |= loMask & hiMask
		return
	}
	b.words[first] |= loMask
	for i := first + 1; i < last; i++ {
		b.words[i] = ^uint64(0)
	}
	b.words[last] |= hiMask
}

// SetWord overwrites bits [64*wi, 64*wi+64) with w, bit 64*wi in w's
// least significant position: how a kernel that computes 64 results at
// a time, or a reader of an LSB-first packed bitmap, stores them without
// a call per bit. Bits at or beyond Len are dropped, so Count stays
// exact.
func (b *Bitmap) SetWord(wi int, w uint64) {
	if rem := b.n - wi<<6; rem < 64 {
		w &= 1<<uint(rem) - 1
	}
	b.words[wi] = w
}

// Runs calls fn(lo, hi) for every maximal run [lo, hi) of consecutive set
// bits, in ascending order. Gather-decode uses runs to copy contiguous
// spans instead of visiting indices one by one.
func (b *Bitmap) Runs(fn func(lo, hi int)) {
	n := b.n
	for i := 0; i < n; {
		// Find the next set bit at or after i.
		wi := i >> 6
		w := b.words[wi] >> (uint(i) & 63)
		for w == 0 {
			wi++
			if wi == len(b.words) {
				return
			}
			i = wi << 6
			w = b.words[wi]
		}
		i += bits.TrailingZeros64(w)
		if i >= n {
			return
		}
		start := i
		// Find the next clear bit at or after i.
		wi = i >> 6
		w = ^b.words[wi] >> (uint(i) & 63)
		for w == 0 {
			wi++
			if wi == len(b.words) {
				i = n
				break
			}
			i = wi << 6
			w = ^b.words[wi]
		}
		if w != 0 && i < n {
			i += bits.TrailingZeros64(w)
			if i > n {
				i = n
			}
		}
		fn(start, i)
	}
}

// Clone returns a deep copy.
func (b *Bitmap) Clone() *Bitmap {
	out := &Bitmap{words: make([]uint64, len(b.words)), n: b.n}
	copy(out.words, b.words)
	return out
}

// Indices returns the positions of all set bits in ascending order,
// appended to dst. Used to materialize selection vectors.
func (b *Bitmap) Indices(dst []int) []int {
	for wi, w := range b.words {
		base := wi << 6
		for w != 0 {
			tz := bits.TrailingZeros64(w)
			idx := base + tz
			if idx >= b.n {
				break
			}
			dst = append(dst, idx)
			w &= w - 1
		}
	}
	return dst
}

// ByteSize reports the in-memory footprint of the bitmap in bytes.
func (b *Bitmap) ByteSize() int { return len(b.words) * 8 }
