package columnar

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
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
			b.Cut(1000, func(g *Batch) error { checkKeptSize(t, at+": Cut", g); return nil })
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

// Cut hands a batch that fits one granule on as it is, and cuts a larger
// unleased one into views equal to its Slice views, row for row and
// ByteSize for ByteSize; an error from emit stops it.
func TestCutMatchesSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for _, n := range []int{1, 64, 4096, 4097, 10000} {
		for _, nullEvery := range []int{0, 7} {
			b := fiveColumns(rng, n, nullEvery)
			var got []*Batch
			if err := b.Cut(4096, func(g *Batch) error { got = append(got, g); return nil }); err != nil {
				t.Fatal(err)
			}
			at := fmt.Sprintf("n=%d nullEvery=%d", n, nullEvery)
			if len(got) != (n+4095)/4096 || (n <= 4096 && got[0] != b) {
				t.Fatalf("%s: cut into %d batches, want %d (the batch itself when it fits one)", at, len(got), (n+4095)/4096)
			}
			for i, g := range got {
				ref := b.Slice(i*4096, min((i+1)*4096, n))
				if !reflect.DeepEqual(g.RowMajor(), ref.RowMajor()) || g.ByteSize() != ref.ByteSize() {
					t.Fatalf("%s: granule %d differs from its Slice view (ByteSize %d, want %d)", at, i, g.ByteSize(), ref.ByteSize())
				}
			}
		}
	}
	stop, calls := errors.New("stop"), 0
	if err := fiveColumns(rng, 100, 0).Cut(10, func(*Batch) error { calls++; return stop }); err != stop || calls != 1 {
		t.Fatalf("Cut returned %v after %d calls, want the first emit's error after one", err, calls)
	}
}

// A coded vector whose dictionary entries share one length is sized as
// rows × that length without a walk of its codes, through every view of
// it; a dictionary that SetNulls extends with "" for its NULL rows no
// longer has one length and is walked again.
func TestByteSizeOfAUniformDictionary(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	schema := NewSchema(Field{Name: "flag", Type: String})
	for _, c := range []struct {
		name      string
		dict      []string
		nullEvery int
		width     int32 // 1 + the shared length, 0 for none
	}{
		{"uniform", []string{"A", "N", "R"}, 0, 2},
		{"every entry empty, NULLs coded as it", []string{""}, 5, 1},
		{"extended with \"\" for its NULLs", []string{"AB", "NO", "RF"}, 5, 0},
	} {
		for _, n := range []int{1, 64, 65, 4099} {
			codes := make([]int32, n)
			for i := range codes {
				codes[i] = int32(rng.Intn(len(c.dict)))
			}
			v := FromCodes(codes, c.dict)
			if c.nullEvery > 0 {
				nulls := NewBitmap(n)
				for i := 0; i < n; i += c.nullEvery {
					nulls.Set(i)
				}
				v.SetNulls(nulls)
			}
			at := fmt.Sprintf("%s, n=%d", c.name, n)
			if v.width != c.width {
				t.Fatalf("%s: width %d, want %d", at, v.width, c.width)
			}
			b := BatchOf(schema, v)
			checkKeptSize(t, at+": BatchOf", b)
			checkKeptSize(t, at+": Slice", b.Slice(n/3, n))
			for _, sel := range selectionShapes(rng, n) {
				what := fmt.Sprintf("%s %s", at, sel.name)
				checkKeptSize(t, what+": Filter", b.Filter(sel.bits))
				checkKeptSize(t, what+": WithSelection", b.WithSelection(sel.bits))
				checkKeptSize(t, what+": Compact", b.WithSelection(sel.bits).Compact())
			}
		}
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
