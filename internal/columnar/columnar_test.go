package columnar

import (
	"testing"
	"testing/quick"
)

func testSchema() *Schema {
	return NewSchema(
		Field{Name: "id", Type: Int64},
		Field{Name: "price", Type: Float64},
		Field{Name: "name", Type: String},
		Field{Name: "flag", Type: Bool},
	)
}

func TestSchemaBasics(t *testing.T) {
	s := testSchema()
	if s.NumFields() != 4 {
		t.Fatalf("NumFields = %d, want 4", s.NumFields())
	}
	if idx := s.FieldIndex("price"); idx != 1 {
		t.Errorf("FieldIndex(price) = %d, want 1", idx)
	}
	if idx := s.FieldIndex("missing"); idx != -1 {
		t.Errorf("FieldIndex(missing) = %d, want -1", idx)
	}
	p := s.Project([]int{2, 0})
	if p.NumFields() != 2 || p.Fields[0].Name != "name" || p.Fields[1].Name != "id" {
		t.Errorf("Project gave %v", p)
	}
	if !s.Equal(testSchema()) {
		t.Error("Equal(same) = false")
	}
	if s.Equal(p) {
		t.Error("Equal(different) = true")
	}
	want := "(id BIGINT, price DOUBLE, name VARCHAR, flag BOOLEAN)"
	if got := s.String(); got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

func TestSchemaConcatCollision(t *testing.T) {
	left := NewSchema(Field{Name: "k", Type: Int64}, Field{Name: "v", Type: Int64})
	right := NewSchema(Field{Name: "k", Type: Int64}, Field{Name: "w", Type: String})
	cat := left.Concat(right)
	names := []string{"k", "v", "r_k", "w"}
	if cat.NumFields() != 4 {
		t.Fatalf("Concat fields = %d, want 4", cat.NumFields())
	}
	for i, n := range names {
		if cat.Fields[i].Name != n {
			t.Errorf("field %d = %q, want %q", i, cat.Fields[i].Name, n)
		}
	}
}

func TestBitmap(t *testing.T) {
	b := NewBitmap(130)
	b.Set(0)
	b.Set(64)
	b.Set(129)
	if !b.Get(0) || !b.Get(64) || !b.Get(129) || b.Get(1) {
		t.Error("Set/Get wrong")
	}
	if b.Count() != 3 {
		t.Errorf("Count = %d, want 3", b.Count())
	}
	drop := NewBitmap(130)
	drop.Set(64)
	b.AndNot(drop)
	if b.Get(64) || b.Count() != 2 {
		t.Error("AndNot failed to clear bit 64")
	}
	idx := b.Indices(nil)
	if len(idx) != 2 || idx[0] != 0 || idx[1] != 129 {
		t.Errorf("Indices = %v, want [0 129]", idx)
	}

	other := NewBitmap(130)
	other.Set(0)
	other.Set(10)
	clone := b.Clone()
	clone.And(other)
	if clone.Count() != 1 || !clone.Get(0) {
		t.Errorf("And wrong: %v", clone.Indices(nil))
	}
	clone2 := b.Clone()
	clone2.Or(other)
	if clone2.Count() != 3 {
		t.Errorf("Or Count = %d, want 3", clone2.Count())
	}
}

func TestBitmapLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("And with mismatched lengths did not panic")
		}
	}()
	NewBitmap(10).And(NewBitmap(20))
}

func TestVectorAppendAndGet(t *testing.T) {
	v := NewVector(Int64, 4)
	v.AppendInt64(10)
	v.AppendNull()
	v.AppendInt64(30)
	if v.Len() != 3 {
		t.Fatalf("Len = %d, want 3", v.Len())
	}
	if v.IsNull(0) || !v.IsNull(1) || v.IsNull(2) {
		t.Error("null tracking wrong")
	}
	if v.NullCount() != 1 || !v.HasNulls() {
		t.Error("NullCount/HasNulls wrong")
	}
	if got := v.Value(0); !got.Equal(IntValue(10)) {
		t.Errorf("Value(0) = %v", got)
	}
	if got := v.Value(1); !got.Null {
		t.Errorf("Value(1) = %v, want NULL", got)
	}
}

func TestVectorTypesRoundTrip(t *testing.T) {
	cases := []Value{
		IntValue(-7),
		FloatValue(3.25),
		StringValue("hello"),
		BoolValue(true),
	}
	for _, val := range cases {
		v := NewVector(val.Type, 1)
		v.AppendValue(val)
		if got := v.Value(0); !got.Equal(val) {
			t.Errorf("%v round-trip gave %v", val, got)
		}
	}
}

func TestVectorAppendWrongTypePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("AppendValue with wrong type did not panic")
		}
	}()
	NewVector(Int64, 1).AppendValue(StringValue("x"))
}

func TestVectorGatherAndSlice(t *testing.T) {
	v := FromInt64s([]int64{0, 10, 20, 30, 40})
	g := v.Gather([]int{4, 0, 2})
	want := []int64{40, 0, 20}
	for i, w := range want {
		if g.Int64s()[i] != w {
			t.Errorf("Gather[%d] = %d, want %d", i, g.Int64s()[i], w)
		}
	}
	s := v.Slice(1, 4)
	if s.Len() != 3 || s.Int64s()[0] != 10 || s.Int64s()[2] != 30 {
		t.Errorf("Slice = %v", s.Int64s())
	}
}

func TestVectorSliceCarriesNulls(t *testing.T) {
	v := NewVector(Int64, 4)
	v.AppendInt64(1)
	v.AppendNull()
	v.AppendInt64(3)
	s := v.Slice(1, 3)
	if !s.IsNull(0) || s.IsNull(1) {
		t.Error("Slice lost null bits")
	}
}

func TestVectorByteSize(t *testing.T) {
	v := FromInt64s(make([]int64, 100))
	if v.ByteSize() != 800 {
		t.Errorf("int64 ByteSize = %d, want 800", v.ByteSize())
	}
	sv := FromStrings([]string{"abc", ""})
	if sv.ByteSize() != 3+16*2 {
		t.Errorf("string ByteSize = %d, want 35", sv.ByteSize())
	}
}

func TestBatchBuildAndAccess(t *testing.T) {
	s := testSchema()
	b := NewBatch(s, 4)
	b.AppendRow(IntValue(1), FloatValue(9.5), StringValue("a"), BoolValue(true))
	b.AppendRow(IntValue(2), FloatValue(1.5), StringValue("b"), BoolValue(false))
	if b.NumRows() != 2 || b.NumCols() != 4 {
		t.Fatalf("shape = %dx%d, want 2x4", b.NumRows(), b.NumCols())
	}
	if b.Col(s.FieldIndex("price")).Float64s()[1] != 1.5 {
		t.Error("Col(FieldIndex(price)) wrong")
	}
	if s.FieldIndex("missing") >= 0 {
		t.Error("FieldIndex(missing) should be negative")
	}
	row := b.Row(0)
	if !row[2].Equal(StringValue("a")) {
		t.Errorf("Row(0)[2] = %v", row[2])
	}
}

func TestBatchOfValidation(t *testing.T) {
	s := NewSchema(Field{Name: "x", Type: Int64}, Field{Name: "y", Type: Int64})
	// Wrong count.
	func() {
		defer func() {
			if recover() == nil {
				t.Error("BatchOf with wrong column count did not panic")
			}
		}()
		BatchOf(s, FromInt64s([]int64{1}))
	}()
	// Wrong type.
	func() {
		defer func() {
			if recover() == nil {
				t.Error("BatchOf with wrong type did not panic")
			}
		}()
		BatchOf(s, FromInt64s([]int64{1}), FromStrings([]string{"a"}))
	}()
	// Ragged lengths.
	func() {
		defer func() {
			if recover() == nil {
				t.Error("BatchOf with ragged lengths did not panic")
			}
		}()
		BatchOf(s, FromInt64s([]int64{1}), FromInt64s([]int64{1, 2}))
	}()
}

func TestBatchProjectGatherFilterSlice(t *testing.T) {
	s := NewSchema(Field{Name: "a", Type: Int64}, Field{Name: "b", Type: String})
	b := BatchOf(s,
		FromInt64s([]int64{1, 2, 3, 4}),
		FromStrings([]string{"w", "x", "y", "z"}))

	p := b.Project([]int{1})
	if p.NumCols() != 1 || p.Schema().Fields[0].Name != "b" {
		t.Error("Project wrong")
	}

	g := b.Gather([]int{3, 1})
	if g.Col(0).Int64s()[0] != 4 || g.Col(1).Strings()[1] != "x" {
		t.Error("Gather wrong")
	}

	sel := NewBitmap(4)
	sel.Set(0)
	sel.Set(2)
	f := b.Filter(sel)
	if f.NumRows() != 2 || f.Col(0).Int64s()[1] != 3 {
		t.Error("Filter wrong")
	}

	sl := b.Slice(1, 3)
	if sl.NumRows() != 2 || sl.Col(1).Strings()[0] != "x" {
		t.Error("Slice wrong")
	}
}

func TestBatchClone(t *testing.T) {
	s := NewSchema(Field{Name: "a", Type: Int64})
	b := BatchOf(s, FromInt64s([]int64{1, 2}))
	c := b.Clone()
	c.Col(0).Int64s()[0] = 99
	if b.Col(0).Int64s()[0] != 1 {
		t.Error("Clone shares storage with original")
	}
}

func TestRowMajorRoundTrip(t *testing.T) {
	s := testSchema()
	b := NewBatch(s, 3)
	b.AppendRow(IntValue(1), FloatValue(2), StringValue("x"), BoolValue(true))
	b.AppendRow(NullValue(Int64), FloatValue(4), StringValue("y"), BoolValue(false))
	rows := b.RowMajor()
	back := NewBatch(s, len(rows))
	for _, r := range rows {
		back.AppendRow(r...)
	}
	if back.NumRows() != 2 {
		t.Fatalf("round trip rows = %d", back.NumRows())
	}
	for i := 0; i < 2; i++ {
		for c := 0; c < 4; c++ {
			if !back.Col(c).Value(i).Equal(b.Col(c).Value(i)) {
				t.Errorf("cell (%d,%d) differs after round trip", i, c)
			}
		}
	}
}

// Property: for any index list, Gather preserves values positionally.
func TestGatherProperty(t *testing.T) {
	f := func(vals []int64, picks []uint8) bool {
		if len(vals) == 0 {
			return true
		}
		v := FromInt64s(vals)
		idx := make([]int, len(picks))
		for i, p := range picks {
			idx[i] = int(p) % len(vals)
		}
		g := v.Gather(idx)
		for i, id := range idx {
			if g.Int64s()[i] != vals[id] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: bitmap Indices and Count agree.
func TestBitmapCountIndicesProperty(t *testing.T) {
	f := func(setBits []uint16) bool {
		b := NewBitmap(1 << 16)
		uniq := make(map[int]bool)
		for _, s := range setBits {
			b.Set(int(s))
			uniq[int(s)] = true
		}
		return b.Count() == len(uniq) && len(b.Indices(nil)) == len(uniq)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
