package columnar

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// Batch.Filter and Compact take rows out of a selection a bitmap word at
// a time (selectValues, Bitmap.Select). These tests pin them — value for
// value, null bit for null bit and in ByteSize — to the plain reference,
// Gather(sel.Indices(nil)), over selection shapes, NULL densities and the
// row counts around a word boundary.

// selection is one shape of the matrix over n rows.
type selection struct {
	name string
	bits *Bitmap
}

func selectionShapes(rng *rand.Rand, n int) []selection {
	shape := func(name string, keep func(i int) bool) selection {
		bm := NewBitmap(n)
		for i := 0; i < n; i++ {
			if keep(i) {
				bm.Set(i)
			}
		}
		return selection{name, bm}
	}
	one := rng.Intn(max(n, 1))
	out := []selection{
		shape("empty", func(int) bool { return false }),
		shape("full", func(int) bool { return true }),
		shape("one bit", func(i int) bool { return i == one }),
		shape("alternating", func(i int) bool { return i%2 == 1 }),
	}
	for _, p := range []float64{0.01, 0.5, 0.99} {
		out = append(out, shape(fmt.Sprintf("random %.2f", p), func(int) bool { return rng.Float64() < p }))
	}
	for _, run := range []int{63, 64, 65} {
		// Runs of run rows, a clear row between them, the first starting at
		// row 1: over 65 runs they cross a word boundary at every offset.
		out = append(out, shape(fmt.Sprintf("runs of %d", run), func(i int) bool { return i > 0 && (i-1)%(run+1) < run }))
	}
	return out
}

// fourTypes builds an n-row batch with one column of every type, NULL in
// every column at every nullEvery-th row (0: none, 1: all).
func fourTypes(rng *rand.Rand, n, nullEvery int) *Batch {
	return fourTypesNullAt(rng, n, func(i int) bool { return nullEvery > 0 && i%nullEvery == 0 })
}

// fourTypesNullAt is fourTypes with NULL in every column at the rows
// where null is true.
func fourTypesNullAt(rng *rand.Rand, n int, null func(i int) bool) *Batch {
	schema := NewSchema(
		Field{Name: "i", Type: Int64}, Field{Name: "f", Type: Float64},
		Field{Name: "s", Type: String}, Field{Name: "b", Type: Bool},
	)
	b := NewBatch(schema, n)
	for i := 0; i < n; i++ {
		if null(i) {
			b.AppendRow(NullValue(Int64), NullValue(Float64), NullValue(String), NullValue(Bool))
			continue
		}
		b.AppendRow(IntValue(rng.Int63()), FloatValue(rng.NormFloat64()),
			StringValue(fmt.Sprintf("row-%d", i)), BoolValue(rng.Intn(2) == 0))
	}
	return b
}

func sameBatch(t *testing.T, what string, got, want *Batch) {
	t.Helper()
	if got.NumRows() != want.NumRows() || got.NumCols() != want.NumCols() || got.Selection() != nil {
		t.Fatalf("%s: %d rows × %d cols (selection %v), want %d × %d dense", what,
			got.NumRows(), got.NumCols(), got.Selection(), want.NumRows(), want.NumCols())
	}
	for c := 0; c < want.NumCols(); c++ {
		g, w := got.Col(c), want.Col(c)
		if !slices.Equal(g.Int64s(), w.Int64s()) || !slices.Equal(g.Float64s(), w.Float64s()) ||
			!slices.Equal(g.Strings(), w.Strings()) || !slices.Equal(g.Bools(), w.Bools()) {
			t.Fatalf("%s: column %d values differ", what, c)
		}
		for i := 0; i < w.Len(); i++ {
			if g.IsNull(i) != w.IsNull(i) {
				t.Fatalf("%s: column %d row %d null = %v, want %v", what, c, i, g.IsNull(i), w.IsNull(i))
			}
		}
		if g.HasNulls() != w.HasNulls() || g.ByteSize() != w.ByteSize() {
			t.Fatalf("%s: column %d HasNulls/ByteSize %v/%d, want %v/%d", what, c, g.HasNulls(), g.ByteSize(), w.HasNulls(), w.ByteSize())
		}
	}
}

func TestFilterAndCompactMatchGatherOfIndices(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, n := range []int{0, 1, 63, 64, 65, 1000, 65536} {
		for _, nullEvery := range []int{0, 11, 1} {
			b := fourTypes(rng, n, nullEvery)
			for _, sel := range selectionShapes(rng, n) {
				what := fmt.Sprintf("n=%d nullEvery=%d %s", n, nullEvery, sel.name)
				want := b.Gather(sel.bits.Indices(nil))
				sameBatch(t, what+": Filter", b.Filter(sel.bits), want)
				sameBatch(t, what+": Compact", b.WithSelection(sel.bits).Compact(), want)
			}
		}
		// A batch without columns only counts.
		zero := ZeroColumnBatch(NewSchema(), n)
		for _, sel := range selectionShapes(rng, n) {
			what := fmt.Sprintf("zero columns n=%d %s", n, sel.name)
			want := zero.Gather(sel.bits.Indices(nil))
			sameBatch(t, what+": Filter", zero.Filter(sel.bits), want)
			sameBatch(t, what+": Compact", zero.WithSelection(sel.bits).Compact(), want)
		}
	}
}

// A selected batch is the size of its live rows: ByteSize under a
// selection is the filtered batch's, column by column, without the copy.
func TestSelectedByteSizeIsFilteredByteSize(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	same := func(what string, b *Batch, sel *Bitmap) {
		t.Helper()
		lazy, dense := b.WithSelection(sel), b.Filter(sel)
		for c := 0; c < b.NumCols(); c++ {
			col := []int{c}
			if got, want := lazy.Project(col).ByteSize(), dense.Project(col).ByteSize(); got != want {
				t.Fatalf("%s: column %d ByteSize %d under the selection, %d filtered", what, c, got, want)
			}
		}
		if got, want := lazy.ByteSize(), dense.ByteSize(); got != want {
			t.Fatalf("%s: ByteSize %d under the selection, %d filtered", what, got, want)
		}
	}
	for _, n := range []int{0, 1, 63, 64, 65, 1000, 4099} {
		for _, nullEvery := range []int{0, 7, 1} {
			b := fourTypes(rng, n, nullEvery)
			for _, sel := range selectionShapes(rng, n) {
				same(fmt.Sprintf("n=%d nullEvery=%d %s", n, nullEvery, sel.name), b, sel.bits)
			}
		}
	}
	// The selection keeps the odd rows below 130, so row 129 is the last
	// live one; the kept null bitmap ends at the last live NULL's rank.
	sel := NewBitmap(200)
	for i := 1; i < 130; i += 2 {
		sel.Set(i)
	}
	for _, c := range []struct {
		name  string
		nulls []int
	}{
		{"NULL in the last selected row", []int{129}},
		{"NULL in the last selected row and past it", []int{4, 129, 131, 199}},
		{"NULLs only past the last selected row", []int{131, 150, 199}},
		{"NULLs only in dead rows", []int{0, 64, 128, 130}},
		{"NULL in the first selected row of a word", []int{65}},
	} {
		b := fourTypesNullAt(rng, 200, func(i int) bool { return slices.Contains(c.nulls, i) })
		same(c.name, b, sel)
	}
	// A slice's null bitmap is cut at its last NULL as well, so a full
	// selection over a slice, which Compact returns uncopied, is the size
	// of the filtered slice.
	sliced := fourTypesNullAt(rng, 300, func(i int) bool { return i == 10 || i == 250 }).Slice(0, 200)
	full := NewBitmap(200)
	full.Fill(0, 200)
	same("slice, full selection", sliced, full)
}

// A vector's null bitmap stops at its last NULL, short of the selection:
// the rows past it are not NULL, and Select reads them as clear.
func TestFilterWithNullBitmapShorterThanSelection(t *testing.T) {
	v := NewVector(Int64, 200)
	for i := 0; i < 200; i++ {
		if i == 3 || i == 70 {
			v.AppendNull()
		} else {
			v.AppendInt64(int64(i))
		}
	}
	b := BatchOf(NewSchema(Field{Name: "i", Type: Int64}), v)
	sel := NewBitmap(200)
	sel.Fill(2, 200)
	sameBatch(t, "short null bitmap", b.Filter(sel), b.Gather(sel.Indices(nil)))
}

func TestBitmapSelectAndLastSet(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for _, n := range []int{1, 64, 65, 300} {
		for _, sel := range selectionShapes(rng, n) {
			name, sel := sel.name, sel.bits
			bm := NewBitmap(n)
			last := -1
			for i := 0; i < n; i++ {
				if rng.Intn(5) == 0 {
					bm.Set(i)
					last = i
				}
			}
			if got := bm.LastSet(); got != last {
				t.Fatalf("n=%d: LastSet = %d, want %d", n, got, last)
			}
			got := bm.Select(sel)
			idx := sel.Indices(nil)
			if got.Len() != len(idx) {
				t.Fatalf("n=%d %s: Select has %d bits, want %d", n, name, got.Len(), len(idx))
			}
			for k, i := range idx {
				if got.Get(k) != bm.Get(i) {
					t.Fatalf("n=%d %s: bit %d (row %d) = %v, want %v", n, name, k, i, got.Get(k), bm.Get(i))
				}
			}
		}
	}
}

// AppendNull grows the null bitmap by appending words: 65,536 NULLs are a
// handful of reallocations, not one bitmap copied bit by bit per row.
func TestAppendNullGrowsAmortised(t *testing.T) {
	allocs := testing.AllocsPerRun(3, func() {
		v := NewVector(Int64, 1<<16)
		for i := 0; i < 1<<16; i++ {
			v.AppendNull()
		}
		if v.NullCount() != 1<<16 || v.nulls.Len() != 1<<16 {
			t.Fatalf("%d NULLs over %d bits", v.NullCount(), v.nulls.Len())
		}
	})
	if allocs > 32 {
		t.Fatalf("65,536 AppendNull calls allocate %.0f times", allocs)
	}
}
