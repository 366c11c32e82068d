package exec

import (
	"strings"
	"testing"

	"repro/internal/columnar"
	"repro/internal/encoding"
	"repro/internal/expr"
	"repro/internal/flow"
)

func mixedBatch() *columnar.Batch {
	schema := columnar.NewSchema(
		columnar.Field{Name: "k", Type: columnar.Int64},
		columnar.Field{Name: "x", Type: columnar.Float64},
		columnar.Field{Name: "s", Type: columnar.String},
		columnar.Field{Name: "b", Type: columnar.Bool},
	)
	b := columnar.NewBatch(schema, 4)
	b.AppendRow(columnar.IntValue(1), columnar.FloatValue(1.5), columnar.StringValue("ab"), columnar.BoolValue(true))
	b.AppendRow(columnar.NullValue(columnar.Int64), columnar.FloatValue(-2), columnar.StringValue(""), columnar.BoolValue(false))
	b.AppendRow(columnar.IntValue(3), columnar.NullValue(columnar.Float64), columnar.NullValue(columnar.String), columnar.NullValue(columnar.Bool))
	return b
}

func TestSerializeBatchRoundTrip(t *testing.T) {
	in := mixedBatch()
	out, err := deserializeBatch(serializeBatch(in))
	if err != nil {
		t.Fatal(err)
	}
	if !out.Schema().Equal(in.Schema()) {
		t.Fatalf("schema changed: %s vs %s", out.Schema(), in.Schema())
	}
	for r := 0; r < in.NumRows(); r++ {
		for c := 0; c < in.NumCols(); c++ {
			if !out.Col(c).Value(r).Equal(in.Col(c).Value(r)) {
				t.Fatalf("cell (%d,%d) differs", r, c)
			}
		}
	}
}

func TestDeserializeBatchRejectsGarbage(t *testing.T) {
	blob := serializeBatch(mixedBatch())
	for _, cut := range []int{0, 2, 5, len(blob) / 2} {
		if _, err := deserializeBatch(blob[:cut]); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
}

func TestEncryptDecryptStages(t *testing.T) {
	key := encoding.NewStreamKey([]byte("unit"))
	enc := &EncryptStage{Key: key}
	dec := &DecryptStage{Key: key}
	in := mixedBatch()

	sealedBatches := runStage(t, enc, in, in) // two batches, distinct seqs
	if len(sealedBatches) != 2 {
		t.Fatalf("sealed %d batches", len(sealedBatches))
	}
	if sealedBatches[0].Schema().Fields[0].Name != "sealed" {
		t.Fatal("sealed container schema wrong")
	}
	opened := runStage(t, dec, sealedBatches...)
	if len(opened) != 2 || opened[0].NumRows() != in.NumRows() {
		t.Fatalf("opened %d batches", len(opened))
	}
	for c := 0; c < in.NumCols(); c++ {
		if !opened[1].Col(c).Value(0).Equal(in.Col(c).Value(0)) {
			t.Fatal("decrypted data differs")
		}
	}
	if enc.Name() == "" || dec.Name() == "" {
		t.Error("empty stage names")
	}
}

func TestDecryptStageRejectsTampering(t *testing.T) {
	key := encoding.NewStreamKey([]byte("unit"))
	enc := &EncryptStage{Key: key}
	sealed := runStage(t, enc, mixedBatch())[0]
	raw := []byte(sealed.Col(0).Strings()[0])
	raw[len(raw)/2] ^= 1
	tampered := columnar.BatchOf(sealed.Schema(), columnar.FromStrings([]string{string(raw)}))

	dec := &DecryptStage{Key: key}
	err := dec.Process(tampered, func(*columnar.Batch) error { return nil })
	if err == nil {
		t.Fatal("tampered payload accepted")
	}
	// Wrong key fails too.
	other := &DecryptStage{Key: encoding.NewStreamKey([]byte("other"))}
	if err := other.Process(sealed, func(*columnar.Batch) error { return nil }); err == nil {
		t.Fatal("wrong key accepted")
	}
	// Unsealed input is rejected.
	if err := dec.Process(mixedBatch(), func(*columnar.Batch) error { return nil }); err == nil ||
		!strings.Contains(err.Error(), "unsealed") {
		t.Fatalf("unsealed batch error = %v", err)
	}
}

func TestHashValueAllTypes(t *testing.T) {
	iv := columnar.FromInt64s([]int64{5, 5, 6})
	fv := columnar.FromFloat64s([]float64{1.5, 1.5, 2.5})
	sv := columnar.FromStrings([]string{"x", "x", "y"})
	bv := columnar.FromBools([]bool{true, true, false})
	for name, col := range map[string]*columnar.Vector{"int": iv, "float": fv, "string": sv, "bool": bv} {
		h0 := HashValue(col, 0, SeedJoin)
		h1 := HashValue(col, 1, SeedJoin)
		h2 := HashValue(col, 2, SeedJoin)
		if h0 != h1 {
			t.Errorf("%s: equal values hashed differently", name)
		}
		if h0 == h2 {
			t.Errorf("%s: distinct values collided", name)
		}
	}
	// NULLs hash consistently and differently from zero values.
	nv := columnar.NewVector(columnar.Int64, 2)
	nv.AppendNull()
	nv.AppendInt64(0)
	if HashValue(nv, 0, SeedJoin) == HashValue(nv, 1, SeedJoin) {
		t.Error("NULL hashed like zero")
	}
	// Seeds decorrelate.
	if HashValue(iv, 0, SeedJoin) == HashValue(iv, 0, SeedPartition) {
		t.Error("seeds did not decorrelate")
	}
}

func TestHashTableMemBytes(t *testing.T) {
	table := NewHashTable(kvSchema(), 0, 1)
	if table.MemBytes() != 0 {
		t.Errorf("empty MemBytes = %v", table.MemBytes())
	}
	table.Build(kvBatch([]int64{1, 2, 3}, []int64{0, 0, 0}))
	if table.MemBytes() < 3*16 {
		t.Errorf("MemBytes = %v after 3 rows", table.MemBytes())
	}
}

func TestHashTableUnsupportedKeyPanics(t *testing.T) {
	schema := columnar.NewSchema(columnar.Field{Name: "f", Type: columnar.Float64})
	defer func() {
		if recover() == nil {
			t.Fatal("float join key accepted")
		}
	}()
	NewHashTable(schema, 0, 1)
}

func TestStageNames(t *testing.T) {
	stages := []flow.Stage{
		&FilterStage{Pred: expr.NewCmp(0, expr.Eq, columnar.IntValue(1))},
		&ProjectStage{Columns: []int{0}},
		&HashStage{KeyCol: 0},
		&CountStage{},
		&SortStage{ByCol: 0},
		&LimitStage{N: 1},
		&BuildStage{Table: NewHashTable(kvSchema(), 0, 1)},
		&HashJoinStage{Table: NewHashTable(kvSchema(), 0, 1), ProbeKey: 0},
	}
	for _, s := range stages {
		if s.Name() == "" {
			t.Errorf("%T has empty Name", s)
		}
	}
}

func TestSortStageFlushEmpty(t *testing.T) {
	if out := runStage(t, &SortStage{ByCol: 0}); len(out) != 0 {
		t.Error("empty sort emitted")
	}
}
