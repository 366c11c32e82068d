package columnar

import "testing"

// Additional unit coverage for value-level helpers and less-travelled
// vector paths.

func TestTypeHelpers(t *testing.T) {
	if Int64.String() != "BIGINT" || Type(99).String() == "" {
		t.Error("Type.String wrong")
	}
}

func TestValueStrings(t *testing.T) {
	cases := map[string]Value{
		"7":    IntValue(7),
		"1.5":  FloatValue(1.5),
		"hi":   StringValue("hi"),
		"true": BoolValue(true),
		"NULL": NullValue(Int64),
	}
	for want, v := range cases {
		if got := v.String(); got != want {
			t.Errorf("Value.String() = %q, want %q", got, want)
		}
	}
	// Cross-type and null inequality.
	if IntValue(1).Equal(FloatValue(1)) {
		t.Error("int equals float")
	}
	if NullValue(Int64).Equal(IntValue(0)) {
		t.Error("NULL equals zero")
	}
	if !NullValue(Int64).Equal(NullValue(Int64)) {
		t.Error("NULLs of same type unequal")
	}
}

func TestFromConstructorsAndAccessors(t *testing.T) {
	fv := FromFloat64s([]float64{1, 2})
	if fv.Len() != 2 || fv.Float64s()[1] != 2 {
		t.Error("FromFloat64s wrong")
	}
	bv := FromBools([]bool{true, false, true})
	if bv.Len() != 3 || !bv.Bools()[2] {
		t.Error("FromBools wrong")
	}
	sv := FromStrings([]string{"a"})
	if sv.Len() != 1 {
		t.Error("FromStrings wrong")
	}
}

func TestAppendNullAllTypesAndGrowth(t *testing.T) {
	for _, typ := range []Type{Int64, Float64, String, Bool} {
		v := NewVector(typ, 0)
		// Interleave appends so the null bitmap must grow several times.
		for i := 0; i < 200; i++ {
			if i%3 == 0 {
				v.AppendNull()
			} else {
				v.AppendValue(nonNull(typ, i))
			}
		}
		for i := 0; i < 200; i++ {
			if got := v.IsNull(i); got != (i%3 == 0) {
				t.Fatalf("%v: null bit %d = %v", typ, i, got)
			}
		}
		if v.NullCount() != 67 {
			t.Fatalf("%v: NullCount = %d", typ, v.NullCount())
		}
		// Gather with nulls preserves them for every type.
		g := v.Gather([]int{0, 1, 3, 199})
		if !g.IsNull(0) || g.IsNull(1) {
			t.Fatalf("%v: Gather lost null bits", typ)
		}
	}
}

func nonNull(t Type, i int) Value {
	switch t {
	case Int64:
		return IntValue(int64(i))
	case Float64:
		return FloatValue(float64(i))
	case String:
		return StringValue("v")
	case Bool:
		return BoolValue(i%2 == 0)
	}
	panic("bad type")
}

func TestByteSizes(t *testing.T) {
	if FromBools(make([]bool, 10)).ByteSize() != 10 {
		t.Error("bool ByteSize wrong")
	}
	if FromFloat64s(make([]float64, 4)).ByteSize() != 32 {
		t.Error("float ByteSize wrong")
	}
	withNulls := NewVector(Int64, 2)
	withNulls.AppendInt64(1)
	withNulls.AppendNull()
	if withNulls.ByteSize() <= 16 {
		t.Error("null bitmap not counted")
	}
	b := BatchOf(
		NewSchema(Field{Name: "a", Type: Int64}, Field{Name: "b", Type: Bool}),
		FromInt64s(make([]int64, 8)), FromBools(make([]bool, 8)))
	if b.ByteSize() != 64+8 {
		t.Errorf("batch ByteSize = %d", b.ByteSize())
	}
	bm := NewBitmap(65)
	if bm.ByteSize() != 16 {
		t.Errorf("bitmap ByteSize = %d", bm.ByteSize())
	}
}

func TestEmptyBatchAndFilterMismatch(t *testing.T) {
	empty := &Batch{schema: NewSchema()}
	if empty.NumRows() != 0 {
		t.Error("zero-column batch rows != 0")
	}
	b := BatchOf(NewSchema(Field{Name: "a", Type: Int64}), FromInt64s([]int64{1, 2}))
	defer func() {
		if recover() == nil {
			t.Fatal("Filter with wrong selection length did not panic")
		}
	}()
	b.Filter(NewBitmap(7))
}
