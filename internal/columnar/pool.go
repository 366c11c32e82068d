package columnar

import (
	"math"
	"slices"
	"sync"
	"sync/atomic"
)

// Pool recycles decoded sets: a scan decodes a segment into a batch
// leased from it (Lend) and arrays taken from it (Values), which come
// back when the last batch cut from it is released, with the set's
// headers and the views and selections cut from it (see lease). A
// storage server holds one for as long as it lives, so a release that
// lands after its run has ended feeds the next. The zero Pool is ready; a nil *Pool
// allocates every array and recycles none. It is safe for concurrent
// use.
//
// A pool keeps only what came back, and drops a free array too short for
// a take it cannot serve: it never holds more sets than were out on lease
// at once, nor more arrays of a type than were out at once.
type Pool struct {
	mu sync.Mutex
	// The free arrays, one list per element type, and the leases of the
	// sets they came back with.
	ints   [][]int64
	flts   [][]float64
	strs   [][]string
	bools  [][]bool
	codes  [][]int32
	leases []*lease
	// leased counts the sets out on lease, peak the most at once, made
	// the arrays Values has had to allocate.
	leased, peak, made int
}

// Stats reports the decoded sets p holds free, the most it has had out
// on lease at once, and the arrays it has had to allocate because none
// free was long enough.
func (p *Pool) Stats() (free, peak, made int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.leases), p.peak, p.made
}

// Values returns n values of type T for a decode to overwrite, every one
// of them before anything reads the vector: an array a released vector
// gave back when one is long enough, a new one of exactly n otherwise.
// int32 is the type of dictionary codes; a dictionary is never pooled.
func Values[T int64 | float64 | string | bool | int32](p *Pool, n int) []T {
	if p != nil {
		p.mu.Lock()
		a, ok := take[T](p, n)
		if !ok {
			p.made++
		}
		p.mu.Unlock()
		if ok {
			return a
		}
	}
	return make([]T, n)
}

// take removes from p a free array of at least n values of type T and
// returns its first n. When none is that long it drops one, which the
// new array the caller makes stands in for.
func take[T any](p *Pool, n int) ([]T, bool) {
	var free *[][]T
	for _, l := range [...]any{&p.ints, &p.flts, &p.strs, &p.bools, &p.codes} {
		if l, ok := l.(*[][]T); ok {
			free = l
		}
	}
	for i, a := range *free {
		if cap(a) >= n {
			*free = slices.Delete(*free, i, i+1)
			return a[:n], true
		}
	}
	if k := len(*free); k > 0 {
		*free = slices.Delete(*free, k-1, k)
	}
	return nil, false
}

// Lend returns an empty batch of schema, leased from p, for a decode to
// fill: each column is a vector of its field's type whose header the
// decode overwrites with arrays from p (Values). Its header, column slots
// and vectors are the lease's, lent again with it. With a nil p they are
// new, and the batch has no lease.
func (p *Pool) Lend(schema *Schema) *Batch {
	var l *lease
	var set *view
	if p == nil {
		set = new(view)
	} else {
		p.mu.Lock()
		if k := len(p.leases); k > 0 {
			l, p.leases = p.leases[k-1], p.leases[:k-1]
		} else {
			l = &lease{pool: p}
		}
		p.leased++
		p.peak = max(p.peak, p.leased)
		p.mu.Unlock()
		l.refs.Store(1)
		set = &l.set
	}
	b, cols := set.cut(schema.NumFields(), true)
	for i, f := range schema.Fields {
		cols[i].typ = f.Type
	}
	*b = Batch{schema: schema, cols: cols, lease: l}
	return b
}

// lease is the claim every batch cut from one decoded set holds on its
// vectors: refs counts the batches that will each be released, and the
// arrays go back to the pool with the last. The set's own headers are
// made in set, and the views and selections cut from its batches in
// views (see view); they go back with it, whole, and serve the next set
// it is lent to.
type lease struct {
	pool *Pool
	set  view
	refs atomic.Int32

	// mu guards views, the first used of which are out: views are cut on
	// the scan's goroutine and on a stage's workers.
	mu    sync.Mutex
	views []*view
	used  int
}

// view is the storage one view of a leased set, or one selection, is made
// in: its Batch header and, for a slice, its column slots and Vector
// headers, or the selection's bitmap. Each holds on to what it grew.
type view struct {
	b    Batch
	cols []*Vector
	vecs []Vector
	sel  Bitmap
}

// next returns a free view of l's, a new one when l has none.
func (l *lease) next() *view {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.used == len(l.views) {
		l.views = append(l.views, new(view))
	}
	l.used++
	return l.views[l.used-1]
}

// view returns a Batch header for a view of a batch that holds l, and n
// column slots; with vecs, each slot holds a Vector header to write. A
// nil l allocates them, as every view of an unleased batch is.
func (l *lease) view(n int, vecs bool) (*Batch, []*Vector) {
	if l == nil {
		cols := make([]*Vector, n)
		for i := 0; vecs && i < n; i++ {
			cols[i] = new(Vector)
		}
		return new(Batch), cols
	}
	return l.next().cut(n, vecs)
}

// cut readies v to hold a batch of n columns, in what it grew before: its
// header and n column slots, each with vecs holding a Vector header.
func (v *view) cut(n int, vecs bool) (*Batch, []*Vector) {
	v.cols = append(v.cols[:0], make([]*Vector, n)...)
	if vecs {
		v.vecs = append(v.vecs[:0], make([]Vector, n)...)
		for i := range v.cols {
			v.cols[i] = &v.vecs[i]
		}
	}
	return &v.b, v.cols[:n:n]
}

// selection returns a bitmap of n bits, all clear: l's when l is non-nil.
func (l *lease) selection(n int) *Bitmap {
	if l == nil {
		return NewBitmap(n)
	}
	s := &l.next().sel
	*s = Bitmap{words: append(s.words[:0], make([]uint64, (n+63)/64)...), n: n}
	return s
}

// recycle hands the set back to its pool once its last batch is released,
// when nothing holds a view of it any more: the vectors' arrays to the
// free lists, and the lease to the pool's leases. Each vector forgets its
// values and its null bitmap; its dictionary, the segment's, is dropped,
// never pooled. The set's header and every view's are zeroed, so a use of
// one after the release panics, and built with -tags poisonpool every
// selection is set to all ones.
func (l *lease) recycle() {
	for _, v := range l.views[:l.used] {
		v.b = Batch{}
		clear(v.vecs)
		poison(v.sel.words, ^uint64(0))
	}
	l.used = 0
	p := l.pool
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, v := range l.set.vecs {
		p.ints = give(p.ints, v.ints, math.MinInt64)
		p.flts = give(p.flts, v.flts, math.NaN())
		p.strs = give(p.strs, v.strs, "\x00released")
		p.bools = give(p.bools, v.bools, true)
		p.codes = give(p.codes, v.codes, math.MaxInt32)
	}
	l.set.b = Batch{}
	clear(l.set.vecs)
	p.leases = append(p.leases, l)
	p.leased--
}

// give adds a released array, if any, to its free list, poisoned first.
func give[T any](free [][]T, a []T, v T) [][]T {
	if a == nil {
		return free
	}
	poison(a, v)
	return append(free, a)
}

// poison overwrites a with v when built with -tags poisonpool: with what
// no decode produces (NaN, the least BIGINT, a code past any dictionary),
// so a read after release shows as a wrong row or an index panic.
func poison[T any](a []T, v T) {
	if poisonReleased {
		for i := range a {
			a[i] = v
		}
	}
}
