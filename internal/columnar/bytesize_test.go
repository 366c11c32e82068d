package columnar

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// A batch keeps its ByteSize after the first call. These tests hold the
// kept answer, for every way a batch is made, to a fresh walk of the
// batch's rows through the public accessors, and check that AppendRow —
// the one mutation a built batch allows — forgets it.

// refByteSize is what ByteSize must answer, computed row by row: every
// live row's values at their width (a string is its length plus a 16-byte
// header, coded or not) and, per column, a null bitmap of whole words up
// to the rank of the last live NULL.
func refByteSize(b *Batch) int64 {
	sel := b.Selection()
	var n int64
	for c := 0; c < b.NumCols(); c++ {
		col := b.Col(c)
		rank, lastNull := 0, -1
		for i := 0; i < b.NumRows(); i++ {
			if sel != nil && !sel.Get(i) {
				continue
			}
			switch col.Type() {
			case Int64, Float64:
				n += 8
			case Bool:
				n++
			case String:
				n += 16 + int64(len(col.StringAt(i)))
			}
			if col.IsNull(i) {
				lastNull = rank
			}
			rank++
		}
		if lastNull >= 0 {
			n += int64(lastNull/64+1) * 8
		}
	}
	return n
}

// checkKeptSize fails unless b's first ByteSize is the reference, is kept,
// and is what a second call answers.
func checkKeptSize(t *testing.T, what string, b *Batch) {
	t.Helper()
	want := refByteSize(b)
	if got := b.ByteSize(); got != want {
		t.Fatalf("%s: ByteSize = %d, want %d", what, got, want)
	}
	if kept := b.size.Load() - 1; kept != want {
		t.Fatalf("%s: kept size %d, want %d", what, kept, want)
	}
	if got := b.ByteSize(); got != want {
		t.Fatalf("%s: second ByteSize = %d, want %d", what, got, want)
	}
}

// fiveColumns is fourTypes plus a dictionary-coded twin of its String
// column, assembled with BatchOf: both string forms, NULLs where fourTypes
// has them.
func fiveColumns(rng *rand.Rand, n, nullEvery int) *Batch {
	plain := fourTypes(rng, n, nullEvery)
	fields := append(slices.Clone(plain.Schema().Fields), Field{Name: "c", Type: String})
	cols := []*Vector{plain.Col(0), plain.Col(1), plain.Col(2), plain.Col(3), codedTwin(rng, plain.Col(2))}
	return BatchOf(NewSchema(fields...), cols...)
}

func TestByteSizeIsKeptForEveryConstructor(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	for _, n := range []int{0, 1, 63, 64, 65, 1000, 4099} {
		for _, nullEvery := range []int{0, 7, 1} {
			at := fmt.Sprintf("n=%d nullEvery=%d", n, nullEvery)
			checkKeptSize(t, at+": NewBatch+AppendRow", fourTypes(rng, n, nullEvery))
			b := fiveColumns(rng, n, nullEvery)
			checkKeptSize(t, at+": BatchOf", b)
			checkKeptSize(t, at+": Slice", b.Slice(n/3, n))
			checkKeptSize(t, at+": Project", b.Project([]int{4, 2, 0}))
			for _, sel := range selectionShapes(rng, n) {
				what := fmt.Sprintf("%s %s", at, sel.name)
				checkKeptSize(t, what+": Filter", b.Filter(sel.bits))
				checkKeptSize(t, what+": Compact", b.WithSelection(sel.bits).Compact())
				selected := b.WithSelection(sel.bits)
				checkKeptSize(t, what+": WithSelection", selected)
				checkKeptSize(t, what+": Project of WithSelection", selected.Project([]int{4, 1}))
				// Compacting a sized selected batch hands its size on.
				dense := selected.Compact()
				if kept := dense.size.Load() - 1; kept != refByteSize(dense) {
					t.Fatalf("%s: Compact of a sized batch keeps %d, want %d", what, kept, refByteSize(dense))
				}
				checkKeptSize(t, what+": Compact of a sized batch", dense)
			}
		}
		checkKeptSize(t, fmt.Sprintf("n=%d: ZeroColumnBatch", n), ZeroColumnBatch(NewSchema(), n))
	}
}

func TestAppendRowForgetsTheKeptSize(t *testing.T) {
	b := NewBatch(NewSchema(Field{Name: "i", Type: Int64}, Field{Name: "s", Type: String}), 4)
	b.AppendRow(IntValue(1), StringValue("a"))
	before := b.ByteSize()
	b.AppendRow(NullValue(Int64), StringValue("a longer string"))
	if got := b.ByteSize(); got == before || got != refByteSize(b) {
		t.Fatalf("ByteSize after AppendRow = %d (before %d), want %d", got, before, refByteSize(b))
	}
	checkKeptSize(t, "after AppendRow", b)
}

// One decoded batch is read by concurrent queries (Volcano's buffer pool):
// eight goroutines sizing it at once agree, and -race finds nothing.
func TestByteSizeOnASharedBatchAgrees(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	b := fiveColumns(rng, 4099, 7)
	sel := selectionShapes(rng, 4099)[5].bits // random 0.50
	shared := b.WithSelection(sel)
	want := refByteSize(shared)
	got := make([]int64, 8)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[g] = shared.ByteSize()
		}()
	}
	wg.Wait()
	for g, n := range got {
		if n != want {
			t.Fatalf("goroutine %d: ByteSize = %d, want %d", g, n, want)
		}
	}
}
