package columnar

import (
	"math/bits"
	"sync/atomic"
)

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

// Reset makes b a bitmap of n bits, all clear, in b's words when they
// are long enough, and returns it; a nil b is NewBitmap(n). It is how a
// predicate writes into a selection its caller lends it.
func (b *Bitmap) Reset(n int) *Bitmap {
	if b == nil {
		return NewBitmap(n)
	}
	*b = Bitmap{words: append(b.words[:0], make([]uint64, (n+63)/64)...), n: n}
	return b
}

// Release marks b's words as handed back to whoever lends them: built
// with -tags poisonpool it sets every bit, so a read after the hand-back
// selects rows nothing chose.
func (b *Bitmap) Release() { poison(b.words, ^uint64(0)) }

// FullBitmap returns a bitmap of n bits, all set — the selection of every
// row — with its words in buf when buf has room for them. It returns a
// value, not a pointer, so a caller that declares buf as a local array
// and lends the bitmap only to calls that do not keep it selects a whole
// column without a heap allocation.
func FullBitmap(n int, buf []uint64) Bitmap {
	need := (n + 63) / 64
	if cap(buf) < need {
		buf = make([]uint64, need)
	}
	b := Bitmap{words: buf[:need], n: n}
	for i := range b.words {
		b.SetWord(i, ^uint64(0)) // clears the bits at and past n
	}
	return b
}

// allRows holds AllRows's words, made on first use: per n mod 64, 1,024
// all-ones words and then the last word of a selection of n rows.
var allRows [64]atomic.Pointer[[1025]uint64]

// AllRows returns the selection of every one of n rows. Up to 65,536 rows
// its words are the last (n+63)/64 of allRows[n%64], which every caller
// shares and nothing may write; more rows are FullBitmap's.
func AllRows(n int) Bitmap {
	need := (n + 63) / 64
	if need > 1024 {
		return FullBitmap(n, nil)
	}
	words := allRows[n&63].Load()
	if words == nil {
		words = new([1025]uint64)
		for i := range words {
			words[i] = ^uint64(0)
		}
		if r := n & 63; r != 0 {
			words[1024] = 1<<r - 1
		}
		allRows[n&63].Store(words)
	}
	return Bitmap{words: words[1025-need:], n: n}
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

// Words returns the bitmap's backing words, bit 64*i of the bitmap in the
// least significant position of word i. They are read-only: the kernels
// that take selected rows out a word at a time (Batch.Filter here, the
// gather-decoders in package encoding) range over them instead of calling
// Get per row. Every bit at or beyond Len is clear — Set, Fill and SetWord
// keep it so — which is what lets Count, and a kernel that sizes its
// output from Count, trust whole words.
func (b *Bitmap) Words() []uint64 { return b.words }

// Select returns b's bits at the positions set in sel, packed in order:
// bit k of the result is b's bit at sel's k-th set position, and the
// result has sel.Count() bits. This is how a null bitmap follows its
// vector through a selection — the output's null bits are set by rank, a
// word of sel at a time, and words where sel and b share no bit only
// advance the rank. b may be shorter than sel (a vector's null bitmap
// ends at its last NULL); the bits it lacks read as clear.
func (b *Bitmap) Select(sel *Bitmap) *Bitmap {
	out := NewBitmap(sel.Count())
	k := 0
	for wi, w := range sel.words {
		if wi == len(b.words) {
			break
		}
		for hit := w & b.words[wi]; hit != 0; hit &= hit - 1 {
			below := uint64(1)<<uint(bits.TrailingZeros64(hit)) - 1
			out.Set(k + bits.OnesCount64(w&below))
		}
		k += bits.OnesCount64(w)
	}
	return out
}

// cut sets dst, a clear bitmap, to b's bits [from, from+dst.Len()) a
// word at a time, and returns it; the bits b lacks read as clear.
func (b *Bitmap) cut(dst *Bitmap, from int) *Bitmap {
	sh, wi := uint(from&63), from>>6
	for i := range dst.words {
		var w uint64
		if wi+i < len(b.words) {
			w = b.words[wi+i] >> sh
		}
		if wi+i+1 < len(b.words) {
			w |= b.words[wi+i+1] << (64 - sh) // 0 when sh is 0
		}
		dst.SetWord(i, w)
	}
	return dst
}

// lastSelected is b.Select(sel).LastSet() without building the selected
// bitmap: the rank, among sel's set bits, of the highest position set in
// both, or -1 when they share none. b may be shorter than sel.
func (b *Bitmap) lastSelected(sel *Bitmap) int {
	for wi := min(len(b.words), len(sel.words)) - 1; wi >= 0; wi-- {
		hit := b.words[wi] & sel.words[wi]
		if hit == 0 {
			continue
		}
		below := uint64(1)<<uint(bits.Len64(hit)-1) - 1
		k := bits.OnesCount64(sel.words[wi] & below)
		for _, w := range sel.words[:wi] {
			k += bits.OnesCount64(w)
		}
		return k
	}
	return -1
}

// LastSet returns the position of the highest set bit, or -1 when the
// bitmap is empty.
func (b *Bitmap) LastSet() int {
	for wi := len(b.words) - 1; wi >= 0; wi-- {
		if w := b.words[wi]; w != 0 {
			return wi<<6 + bits.Len64(w) - 1
		}
	}
	return -1
}

// cutAtLastSet shortens b in place to end at its last set bit and returns
// it, or returns nil when no bit is set: the shape of every vector's null
// bitmap, so that ByteSize does not depend on how the vector was built.
func (b *Bitmap) cutAtLastSet() *Bitmap {
	last := b.LastSet()
	if last < 0 {
		return nil
	}
	b.words, b.n = b.words[:last>>6+1], last+1
	return b
}

// grow lengthens the bitmap to n bits, the new ones clear. The words grow
// by append, so a bitmap lengthened a bit at a time (Vector.AppendNull)
// costs amortised constant time per bit.
func (b *Bitmap) grow(n int) {
	for need := (n + 63) / 64; len(b.words) < need; {
		b.words = append(b.words, 0)
	}
	b.n = n
}

// Clone returns a deep copy.
func (b *Bitmap) Clone() *Bitmap {
	out := &Bitmap{words: make([]uint64, len(b.words)), n: b.n}
	copy(out.words, b.words)
	return out
}

// Indices returns the positions of all set bits in ascending order,
// appended to dst. No engine path calls it: rows are taken out of a
// selection a bitmap word at a time (Batch.Filter). It stays as the
// plain reference the property tests compare those kernels against.
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
