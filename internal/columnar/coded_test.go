package columnar

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// A dictionary-coded String vector is the plain vector of its strings to
// every reader: these tests hold the two forms side by side, with NULLs,
// through every accessor and every way a vector is cut.

// plainStrings builds an n-row plain String vector over a few distinct
// values, NULL where null is true.
func plainStrings(rng *rand.Rand, n int, null func(i int) bool) *Vector {
	words := []string{"AIR", "MAIL", "SHIP", "", "TRUCK", "REG AIR"}
	v := NewVector(String, n)
	for i := 0; i < n; i++ {
		if null(i) {
			v.AppendNull()
		} else {
			v.AppendString(words[rng.Intn(len(words))])
		}
	}
	return v
}

// codedTwin codes p's values against a dictionary of its distinct values
// in first-appearance order, then shuffled, so codes and dictionary order
// differ; its NULL rows name a non-empty entry before SetNulls makes them
// NULL, which must give them "".
func codedTwin(rng *rand.Rand, p *Vector) *Vector {
	var dict []string
	for i := 0; i < p.Len(); i++ {
		if s := p.StringAt(i); !slices.Contains(dict, s) {
			dict = append(dict, s)
		}
	}
	dict = append(dict, "padding") // an entry no row names
	rng.Shuffle(len(dict), func(i, j int) { dict[i], dict[j] = dict[j], dict[i] })
	codes := make([]int32, p.Len())
	for i := range codes {
		s := p.StringAt(i)
		if p.IsNull(i) {
			s = "padding"
		}
		codes[i] = int32(slices.Index(dict, s))
	}
	c := FromCodes(codes, dict)
	if p.nulls != nil {
		c.SetNulls(p.nulls.Clone())
	}
	return c
}

// sameStrings fails unless got and want read the same through every
// accessor; coded says which form got must be in.
func sameStrings(t *testing.T, what string, got, want *Vector, coded bool) {
	t.Helper()
	if (got.Codes() != nil || got.Dict() != nil) != coded {
		t.Fatalf("%s: coded = %v, want %v", what, !coded, coded)
	}
	if got.Len() != want.Len() || got.Type() != String {
		t.Fatalf("%s: %d %v rows, want %d", what, got.Len(), got.Type(), want.Len())
	}
	for i := 0; i < want.Len(); i++ {
		if got.StringAt(i) != want.StringAt(i) || got.IsNull(i) != want.IsNull(i) || got.Value(i) != want.Value(i) {
			t.Fatalf("%s: row %d = %q/%v/%v, want %q/%v/%v", what, i,
				got.StringAt(i), got.IsNull(i), got.Value(i), want.StringAt(i), want.IsNull(i), want.Value(i))
		}
	}
	if !slices.Equal(got.Strings(), want.Strings()) {
		t.Fatalf("%s: Strings differ", what)
	}
	if got.HasNulls() != want.HasNulls() || got.NullCount() != want.NullCount() || got.ByteSize() != want.ByteSize() {
		t.Fatalf("%s: HasNulls/NullCount/ByteSize %v/%d/%d, want %v/%d/%d", what,
			got.HasNulls(), got.NullCount(), got.ByteSize(), want.HasNulls(), want.NullCount(), want.ByteSize())
	}
}

func TestCodedVectorBehavesLikePlain(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, n := range []int{0, 1, 63, 64, 65, 1000, 4099} {
		for _, nullEvery := range []int{0, 7, 1} {
			null := func(i int) bool { return nullEvery > 0 && i%nullEvery == 0 }
			p := plainStrings(rng, n, null)
			c := codedTwin(rng, p)
			what := fmt.Sprintf("n=%d nullEvery=%d", n, nullEvery)
			sameStrings(t, what, c, p, true)

			// Strings builds a new slice on every call: writing it leaves the
			// vector alone.
			if n > 0 {
				s := c.Strings()
				s[0] = "changed"
				if c.StringAt(0) == "changed" || &c.Strings()[0] == &s[0] {
					t.Fatalf("%s: Strings shares its slice with the vector", what)
				}
			}

			for _, sel := range selectionShapes(rng, n) {
				w := fmt.Sprintf("%s %s", what, sel.name)
				count := sel.bits.Count()
				if got, want := c.selectedByteSize(sel.bits, count), p.selectedByteSize(sel.bits, count); got != want {
					t.Fatalf("%s: selectedByteSize %d, want %d", w, got, want)
				}
				sameStrings(t, w+": filter", c.filter(sel.bits, count), p.filter(sel.bits, count), true)
				idx := sel.bits.Indices(nil)
				sameStrings(t, w+": Gather", c.Gather(idx), p.Gather(idx), false)
				schema := NewSchema(Field{Name: "s", Type: String})
				compacted := BatchOf(schema, c).WithSelection(sel.bits).Compact().Col(0)
				sameStrings(t, w+": Compact", compacted, p.filter(sel.bits, count), true)
			}

			for _, r := range [][2]int{{0, n}, {0, n / 2}, {n / 3, n}, {n / 4, n / 4}} {
				w := fmt.Sprintf("%s Slice(%d, %d)", what, r[0], r[1])
				sameStrings(t, w, c.Slice(r[0], r[1]), p.Slice(r[0], r[1]), true)
			}

			// SetNulls on both, over a fresh pattern.
			nulls := NewBitmap(n)
			for i := 0; i < n; i += 5 {
				nulls.Set(i)
			}
			c2, p2 := codedTwin(rng, p), FromStrings(slices.Clone(p.strs))
			c2.SetNulls(nulls.Clone())
			p2.SetNulls(nulls.Clone())
			sameStrings(t, what+": SetNulls", c2, p2, true)

			// An append turns a coded vector plain first.
			c3 := codedTwin(rng, p)
			c3.AppendString("new")
			c3.AppendNull()
			p3 := NewVector(String, n)
			for i := 0; i < n; i++ {
				p3.AppendValue(p.Value(i))
			}
			p3.AppendString("new")
			p3.AppendNull()
			sameStrings(t, what+": appended", c3, p3, false)
		}
	}
}

// A dictionary without "" still reads "" at a NULL row, without writing
// the shared dictionary.
func TestCodedSetNullsLeavesTheDictionaryAlone(t *testing.T) {
	dict := []string{"a", "b"}
	v := FromCodes([]int32{0, 1, 0}, dict)
	nulls := NewBitmap(3)
	nulls.Set(1)
	v.SetNulls(nulls)
	if v.StringAt(1) != "" || !v.IsNull(1) || v.StringAt(0) != "a" || v.StringAt(2) != "a" {
		t.Fatalf("rows %q, NULL %v", v.Strings(), v.IsNull(1))
	}
	if !slices.Equal(dict, []string{"a", "b"}) {
		t.Fatalf("shared dictionary written: %q", dict)
	}
	if v.ByteSize() != 3*16+2+8 {
		t.Fatalf("ByteSize %d", v.ByteSize())
	}
}
