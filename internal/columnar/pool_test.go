package columnar

import (
	"math"
	"sync"
	"testing"
)

// pooledBatch decodes, as a scan would, an n-row batch of a BIGINT, a
// DOUBLE and a dictionary-coded VARCHAR column, with every third row
// NULL, into a batch leased from p and arrays taken from it.
func pooledBatch(p *Pool, n int) *Batch {
	schema := NewSchema(Field{Name: "i", Type: Int64}, Field{Name: "f", Type: Float64}, Field{Name: "s", Type: String})
	b := p.Lend(schema)
	ints, flts, codes := Values[int64](p, n), Values[float64](p, n), Values[int32](p, n)
	nulls := NewBitmap(n)
	for i := range ints {
		ints[i], flts[i], codes[i] = int64(i), float64(i)/2, int32(i%3)
		if i%3 == 0 {
			nulls.Set(i)
		}
	}
	*b.Col(0) = *FromInt64s(ints)
	b.Col(0).SetNulls(nulls)
	*b.Col(1) = *FromFloat64s(flts)
	*b.Col(2) = *FromCodes(codes, []string{"a", "b", "c"})
	return b
}

// A decoded set goes back to its pool with the last of the views cut
// from it, not the first, and the next decode reuses its arrays.
func TestLeaseRecyclesOnTheLastRelease(t *testing.T) {
	var p Pool
	b := pooledBatch(&p, 10)
	vec := b.Col(0)
	first := &vec.Int64s()[0]
	b.Share(3)
	views := []*Batch{b.Slice(0, 4), b.Slice(4, 8), b.Slice(8, 10)}
	views[1] = views[1].WithSelection(NewBitmap(4)).Project([]int{0, 2}) // views forward the lease
	views[0].Release()
	views[1].Release()
	if got := Values[int64](&p, 10); &got[0] == first {
		t.Fatal("the set went back to the pool before its last view was released")
	}
	if v := views[2].Col(0).Int64s(); v[0] != 8 || views[2].Col(2).StringAt(1) != "a" {
		t.Fatalf("a view still held reads %v, %q", v, views[2].Col(2).StringAt(1))
	}
	views[2].ByteSize()
	views[2].Release()
	if views[2].size.Load() != 0 {
		t.Error("a released batch kept its size")
	}
	if vec.Nulls() != nil || vec.Len() != 0 {
		t.Error("a recycled vector kept its values or its null bitmap")
	}
	if b.NumCols() != 0 || b.lease != nil {
		t.Error("the recycled set's own header kept its columns or its lease")
	}
	got := Values[int64](&p, 6)
	if &got[0] != first || len(got) != 6 {
		t.Fatalf("the next decode got a new array (len %d), not the recycled one", len(got))
	}
	if poisonReleased && got[0] != math.MinInt64 {
		t.Errorf("poison mode: a released value reads %d", got[0])
	}
	views[0].Release() // a second release of one batch is a no-op
	if freeInts(&p) != 0 {
		t.Error("a second release gave the set back again")
	}
}

// A batch without a lease, and the views of one, release as no-ops: the
// values stay what they were, in poison mode too.
func TestReleaseWithoutLeaseIsANoOp(t *testing.T) {
	b := pooledBatch(nil, 8)
	b.Share(2)
	b.Slice(0, 4).Release()
	b.WithSelection(NewBitmap(8)).Release()
	b.Release()
	for i, v := range b.Col(0).Int64s() {
		if v != int64(i) && !b.Col(0).IsNull(i) {
			t.Fatalf("row %d reads %d after releasing a batch with no lease", i, v)
		}
	}
	if got := Values[float64](nil, 5); cap(got) != 5 {
		t.Errorf("a nil pool allocated cap %d for 5 values", cap(got))
	}
}

// CompactOwned releases b only when it copied the live rows out: the
// copy shares nothing but the dictionary, which is never pooled, and a
// compaction that copied nothing forwards the lease.
func TestCompactOwnedReleasesOnlyACopiedBatch(t *testing.T) {
	var p Pool
	b := pooledBatch(&p, 8)
	all := NewBitmap(8)
	for i := 0; i < 8; i++ {
		all.Set(i)
	}
	same := b.WithSelection(all).CompactOwned()
	if same.lease != b.lease || freeInts(&p) != 0 {
		t.Fatal("a compaction that copied nothing released its input")
	}
	half := NewBitmap(8)
	for i := 0; i < 8; i += 2 {
		half.Set(i)
	}
	dict := b.Col(2).Dict()
	dense := same.WithSelection(half).CompactOwned()
	if dense.lease != nil || freeInts(&p) != 1 {
		t.Fatalf("a copying compaction left its input unreleased (%d free arrays)", freeInts(&p))
	}
	if &dense.Col(2).Dict()[0] != &dict[0] || dense.Col(2).StringAt(1) != "c" {
		t.Error("the copy lost the segment's dictionary")
	}
	if v := dense.Col(1).Float64s(); v[1] != 1 {
		t.Errorf("the copy reads %v after its input was released", v)
	}
}

// Views of one set released from many goroutines give it back exactly
// once, whatever the order.
func TestLeaseUnderConcurrentReleases(t *testing.T) {
	var p Pool
	for round := 0; round < 20; round++ {
		b := pooledBatch(&p, 64)
		b.Share(8)
		var wg sync.WaitGroup
		for k := 0; k < 8; k++ {
			v := b.Slice(k*8, k*8+8)
			wg.Add(1)
			go func() {
				defer wg.Done()
				v.ByteSize()
				v.Release()
			}()
		}
		wg.Wait()
		if n := freeInts(&p); n != 1 {
			t.Fatalf("round %d: %d free BIGINT arrays, want the one set's", round, n)
		}
	}
}

// freeInts is the number of BIGINT arrays p holds free.
func freeInts(p *Pool) int {
	return len(p.ints)
}

// The views cut from a leased batch and the selections made for it are
// made in its lease: once the last of them is released, every header is
// zeroed, so a use panics, and built with -tags poisonpool every bitmap
// the lease made, a selection or a slice's null bitmap, reads all ones.
func TestLeasedViewsArePoisonedAfterTheLastRelease(t *testing.T) {
	var p Pool
	b := pooledBatch(&p, 10)
	b.Share(2)
	first, second := b.Slice(0, 6), b.Slice(6, 10)
	sel := first.NewSelection()
	sel.Set(1)
	all := second.NewSelection()
	all.Fill(0, 4)
	filtered := first.WithSelection(sel)
	dense := second.Project([]int{0, 2}).WithSelection(all).Compact()
	views := []*Batch{first, second, filtered, dense}
	vec, nulls := first.Col(0), first.Col(0).Nulls()
	if nulls == nil || dense.lease == nil || dense.Col(1).StringAt(0) != "a" {
		t.Fatal("the views lost their null bitmap, lease or values")
	}
	filtered.Release()
	dense.Release()
	for i, v := range views {
		if v.NumCols() != 0 || v.Selection() != nil || v.lease != nil {
			t.Errorf("view %d kept its header after the set went back", i)
		}
		func() {
			defer func() { _ = recover() }()
			v.Col(0)
			t.Errorf("view %d: reading a column of a released view did not panic", i)
		}()
	}
	if vec.Len() != 0 || vec.Int64s() != nil || vec.Nulls() != nil {
		t.Error("a slice's vector header kept its values after the set went back")
	}
	if poisonReleased {
		for what, bm := range map[string]*Bitmap{"selection": sel, "full selection": all, "null bitmap": nulls} {
			for _, w := range bm.Words() {
				if w != ^uint64(0) {
					t.Errorf("poison mode: a released %s reads %x", what, bm.Words())
					break
				}
			}
		}
	}
}

// A lease that has served one set cuts the next set's views and
// selections in what the first one grew: once warm, cutting a set into
// granules, selecting in each and releasing them allocates nothing.
func TestWarmLeaseCutsGranulesWithoutAllocating(t *testing.T) {
	const rows = 3 * 64
	var p Pool
	schema := NewSchema(Field{Name: "i", Type: Int64}, Field{Name: "f", Type: Float64})
	set := func() {
		b := p.Lend(schema)
		b.Col(0).ints, b.Col(1).flts = Values[int64](&p, rows), Values[float64](&p, rows)
		b.Share(3)
		for off := 0; off < rows; off += 64 {
			g := b.Slice(off, off+64)
			sel := g.NewSelection()
			sel.Fill(0, 64) // every row: Compact copies nothing
			g.WithSelection(sel).Compact().Release()
		}
	}
	set()
	if allocs := testing.AllocsPerRun(50, set); allocs != 0 && !raceEnabled {
		t.Errorf("a warm set allocates %v times", allocs)
	}
	if free, peak, made := p.Stats(); free != 1 || peak != 1 || made != 2 {
		t.Errorf("free %d, peak %d, made %d: want one set, out alone, of two arrays", free, peak, made)
	}
}

// A pool holds no more arrays than were out at once: a take no free array
// is long enough for drops one, so sets of two lengths decoded in turn
// leave one array, not one of each length.
func TestPoolDropsAnArrayTooShortToServe(t *testing.T) {
	var p Pool
	schema := NewSchema(Field{Name: "i", Type: Int64})
	for round := 0; round < 6; round++ {
		n := 100 + 50*(round%2)
		b := p.Lend(schema)
		b.Col(0).ints = Values[int64](&p, n)
		b.Release()
		if len(p.ints) != 1 {
			t.Fatalf("round %d: %d free arrays after one set of one column", round, len(p.ints))
		}
	}
	if _, _, made := p.Stats(); made != 2 {
		t.Errorf("made %d arrays, want 2: one per length until the longer one serves both", made)
	}
}
