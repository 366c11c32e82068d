package columnar

import (
	"math"
	"sync"
	"sync/atomic"
)

// Pool recycles the value arrays of decoded vectors within one run: a
// scan decodes a segment into arrays taken from it (Values), leases the
// decoded batch (Lease), and the arrays come back when the last batch
// cut from it is released. The zero Pool is ready and costs a mutex
// and a pointer until the first array comes back; a nil *Pool allocates
// every array and recycles none. It is safe for concurrent use.
//
// A pool never grows past the decoded sets a run holds at once, and the
// credit window bounds those: a batch is released by the stage that ends
// it, which returns a credit for it too.
type Pool struct {
	mu   sync.Mutex
	free *freeLists // nil until the first release
}

// freeLists holds a pool's free arrays, one list per element type.
type freeLists struct {
	ints  [][]int64
	flts  [][]float64
	strs  [][]string
	bools [][]bool
	codes [][]int32
}

// Values returns n values of type T for a decode to overwrite, every one
// of them before anything reads the vector: an array a released vector
// gave back when one is long enough, a new one of exactly n otherwise.
// int32 is the type of dictionary codes; a dictionary is never pooled.
func Values[T int64 | float64 | string | bool | int32](p *Pool, n int) []T {
	if p != nil {
		p.mu.Lock()
		a, ok := take[T](p.free, n)
		p.mu.Unlock()
		if ok {
			return a
		}
	}
	return make([]T, n)
}

// take removes from f, which may be nil, a free array of at least n
// values of type T and returns its first n.
func take[T any](f *freeLists, n int) ([]T, bool) {
	if f == nil {
		return nil, false
	}
	var free *[][]T
	for _, l := range [...]any{&f.ints, &f.flts, &f.strs, &f.bools, &f.codes} {
		if l, ok := l.(*[][]T); ok {
			free = l
		}
	}
	for i, a := range *free {
		if cap(a) >= n {
			last := len(*free) - 1
			(*free)[i], (*free)[last] = (*free)[last], nil
			*free = (*free)[:last]
			return a[:n], true
		}
	}
	return nil, false
}

// Lease makes b, whose vectors were decoded into arrays from p, the one
// owner of them, and returns it; with a nil p it returns b as it is.
func (p *Pool) Lease(b *Batch) *Batch {
	if p != nil {
		b.lease = &lease{pool: p, vecs: b.cols}
		b.lease.refs.Store(1)
	}
	return b
}

// lease is the claim every batch cut from one decoded set holds on its
// vectors: refs counts the batches that will each be released, and the
// arrays go back to the pool with the last.
type lease struct {
	pool *Pool
	vecs []*Vector
	refs atomic.Int32
}

// recycle hands the vectors' arrays back to the pool. Each vector forgets
// its values and its null bitmap; its dictionary, the segment's, is
// dropped, never pooled.
func (p *Pool) recycle(vecs []*Vector) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.free == nil {
		p.free = new(freeLists)
	}
	f := p.free
	for _, v := range vecs {
		f.ints = give(f.ints, v.ints, math.MinInt64)
		f.flts = give(f.flts, v.flts, math.NaN())
		f.strs = give(f.strs, v.strs, "\x00released")
		f.bools = give(f.bools, v.bools, true)
		f.codes = give(f.codes, v.codes, math.MaxInt32)
		*v = Vector{typ: v.typ}
	}
}

// give adds a released array, if any, to its free list. Built with -tags
// poisonpool it first overwrites it with poison, what no decode produces
// (NaN, the least BIGINT, a code past any dictionary), so a read after
// release shows as a wrong row or an index panic.
func give[T any](free [][]T, a []T, poison T) [][]T {
	if a == nil {
		return free
	}
	if poisonReleased {
		for i := range a {
			a[i] = poison
		}
	}
	return append(free, a)
}
