package exec

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/columnar"
)

// coded is the dictionary-coded twin of the plain String vector v, its
// codes indexing dict, which must hold every value of v.
func coded(v *columnar.Vector, dict []string) *columnar.Vector {
	codes := make([]int32, v.Len())
	for i := range codes {
		codes[i] = int32(slices.Index(dict, v.StringAt(i)))
	}
	out := columnar.FromCodes(codes, dict)
	if nulls := v.Nulls(); nulls != nil {
		out.SetNulls(nulls.Clone())
	}
	return out
}

// Hashing a coded key column reads each row's entry in place: dst is all
// it allocates, so into a dst with room it allocates nothing (a Strings()
// per row would copy the column every row).
func TestHashColumnOverCodesAllocatesOnlyDst(t *testing.T) {
	words := []string{"AIR", "MAIL", "SHIP", "TRUCK"}
	plain := columnar.NewVector(columnar.String, 1<<16)
	for i := 0; i < 1<<16; i++ {
		plain.AppendString(words[i*7%len(words)])
	}
	col := coded(plain, []string{"TRUCK", "SHIP", "MAIL", "AIR"})
	if got, want := HashColumn(col, SeedJoin, nil), HashColumn(plain, SeedJoin, nil); !slices.Equal(got, want) {
		t.Fatal("coded and plain keys hash differently")
	}
	dst := make([]uint64, 1<<16)
	if n := testing.AllocsPerRun(5, func() { dst = HashColumn(col, SeedPartition, dst) }); n != 0 {
		t.Fatalf("HashColumn over 65,536 coded rows into a dst with room: %v allocations, want 0", n)
	}
}

// A hash join keyed on coded columns — build and probe each with its own
// dictionary, NULL keys included — returns the rows a plain join does, at
// every width.
func TestHashJoinOnCodedKeysMatchesPlain(t *testing.T) {
	schema := columnar.NewSchema(
		columnar.Field{Name: "k", Type: columnar.String},
		columnar.Field{Name: "v", Type: columnar.Int64})
	keys := []string{"a", "b", "c", "d", "e", "f", "g"}
	side := func(from, to int) *columnar.Batch {
		b := columnar.NewBatch(schema, to-from)
		for i := from; i < to; i++ {
			k := columnar.StringValue(keys[i%len(keys)])
			if i%5 == 0 {
				k = columnar.NullValue(columnar.String)
			}
			b.AppendRow(k, columnar.IntValue(int64(i)))
		}
		return b
	}
	withCodes := func(b *columnar.Batch, dict []string) *columnar.Batch {
		return columnar.BatchOf(schema, coded(b.Col(0), dict), b.Col(1))
	}
	buildDict := []string{"g", "", "f", "e", "d", "c", "b", "a"}
	probeDict := []string{"", "a", "b", "c", "d", "e", "f", "g"}
	builds := []*columnar.Batch{side(0, 17), side(17, 40)}
	probe := side(3, 25)
	for _, parts := range []int{1, 3} {
		plainT, codedT := NewHashTable(schema, 0, parts), NewHashTable(schema, 0, parts)
		for _, b := range builds {
			plainT.Build(b)
			codedT.Build(withCodes(b, buildDict))
		}
		want := allRows([]*columnar.Batch{plainT.Probe(probe, 0)})
		got := allRows([]*columnar.Batch{codedT.Probe(withCodes(probe, probeDict), 0)})
		if len(want) == 0 || !reflect.DeepEqual(got, want) {
			t.Fatalf("parts=%d: coded join gave %d rows, plain %d, or they differ", parts, len(got), len(want))
		}
		if codedT.Rows() != plainT.Rows() || codedT.MemBytes() != plainT.MemBytes() {
			t.Fatalf("parts=%d: Rows/MemBytes %d/%v coded, %d/%v plain", parts,
				codedT.Rows(), codedT.MemBytes(), plainT.Rows(), plainT.MemBytes())
		}
	}
}
