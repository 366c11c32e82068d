package encoding

import (
	"math/rand"
	"testing"

	"repro/internal/columnar"
)

// encodeIntAs builds an EncodedColumn for vals with a forced codec so
// every codec path gets exercised regardless of which one EncodeColumn
// would pick.
func encodeIntAs(t *testing.T, v *columnar.Vector, enc ColumnEncoding) *EncodedColumn {
	t.Helper()
	if enc != RLE && enc != DeltaVarint && enc != BitPacked {
		t.Fatalf("unsupported forced encoding %v", enc)
	}
	return forced(EncodeColumn(v), enc, intBlock(enc, v.Int64s()))
}

// eagerEval is the reference: full decode, then per-row comparison with
// NULL rows false.
func eagerEvalInt(t *testing.T, ec *EncodedColumn, pred func(int64) bool) *columnar.Bitmap {
	t.Helper()
	v, err := ec.Decode()
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	bm := columnar.NewBitmap(v.Len())
	for i, x := range v.Int64s() {
		if !v.IsNull(i) && pred(x) {
			bm.Set(i)
		}
	}
	return bm
}

func bitmapsEqual(a, b *columnar.Bitmap) bool {
	if a.Len() != b.Len() {
		return false
	}
	for i := 0; i < a.Len(); i++ {
		if a.Get(i) != b.Get(i) {
			return false
		}
	}
	return true
}

func intVectorWithNulls(rng *rand.Rand, n int, domain int64, nullEvery int) *columnar.Vector {
	v := columnar.NewVector(columnar.Int64, n)
	for i := 0; i < n; i++ {
		if nullEvery > 0 && i%nullEvery == 0 {
			v.AppendNull()
		} else {
			v.AppendInt64(rng.Int63n(domain))
		}
	}
	return v
}

func TestEvalIntRangeMatchesEager(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, enc := range []ColumnEncoding{RLE, DeltaVarint, BitPacked} {
		for _, nullEvery := range []int{0, 7} {
			v := intVectorWithNulls(rng, 500, 1000, nullEvery)
			ec := encodeIntAs(t, v, enc)
			for _, r := range [][2]int64{{100, 400}, {0, 999}, {-50, -1}, {1500, 2000}, {250, 250}, {400, 100}} {
				got, ok, err := ec.EvalIntRange(nil, r[0], r[1])
				if err != nil || !ok {
					t.Fatalf("%v nulls=%d EvalIntRange(%d,%d): ok=%v err=%v", enc, nullEvery, r[0], r[1], ok, err)
				}
				want := eagerEvalInt(t, ec, func(x int64) bool { return x >= r[0] && x <= r[1] })
				if !bitmapsEqual(got, want) {
					t.Fatalf("%v nulls=%d range [%d,%d]: kernel disagrees with eager eval", enc, nullEvery, r[0], r[1])
				}
			}
		}
	}
}

func TestEvalIntInMatchesEager(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	vals := []int64{3, 77, 500, 999, 5000}
	for _, enc := range []ColumnEncoding{RLE, DeltaVarint, BitPacked} {
		v := intVectorWithNulls(rng, 400, 1000, 5)
		ec := encodeIntAs(t, v, enc)
		got, ok, err := ec.EvalIntIn(nil, vals)
		if err != nil || !ok {
			t.Fatalf("%v EvalIntIn: ok=%v err=%v", enc, ok, err)
		}
		want := eagerEvalInt(t, ec, func(x int64) bool {
			for _, w := range vals {
				if x == w {
					return true
				}
			}
			return false
		})
		if !bitmapsEqual(got, want) {
			t.Fatalf("%v: EvalIntIn disagrees with eager eval", enc)
		}
	}
}

func TestEvalFloatRangeMatchesEager(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	v := columnar.NewVector(columnar.Float64, 300)
	for i := 0; i < 300; i++ {
		if i%11 == 0 {
			v.AppendNull()
		} else {
			v.AppendFloat64(rng.Float64() * 100)
		}
	}
	ec := EncodeColumn(v)
	dec, err := ec.Decode()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		lo, hi       float64
		incLo, incHi bool
	}{
		{10, 50, true, true}, {10, 50, false, false}, {-5, 200, true, true},
		{200, 300, true, true}, {0, 10, true, false},
	} {
		got, ok, err := ec.EvalFloatRange(nil, c.lo, c.hi, c.incLo, c.incHi)
		if err != nil || !ok {
			t.Fatalf("EvalFloatRange(%v): ok=%v err=%v", c, ok, err)
		}
		want := columnar.NewBitmap(dec.Len())
		for i, x := range dec.Float64s() {
			if dec.IsNull(i) {
				continue
			}
			if (x > c.lo || (c.incLo && x == c.lo)) && (x < c.hi || (c.incHi && x == c.hi)) {
				want.Set(i)
			}
		}
		if !bitmapsEqual(got, want) {
			t.Fatalf("EvalFloatRange(%v) disagrees with eager eval", c)
		}
	}
}

func TestEvalStringMatchDict(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	cats := []string{"alpha", "beta", "gamma", "delta", "epsilon"}
	v := columnar.NewVector(columnar.String, 300)
	for i := 0; i < 300; i++ {
		if i%13 == 0 {
			v.AppendNull()
		} else {
			v.AppendString(cats[rng.Intn(len(cats))])
		}
	}
	ec := EncodeColumn(v)
	if ec.Encoding != Dict {
		t.Fatalf("expected Dict encoding, got %v", ec.Encoding)
	}
	dec, err := ec.Decode()
	if err != nil {
		t.Fatal(err)
	}
	match := func(s string) bool { return s == "beta" || s > "ep" }
	got, ok, err := ec.EvalStringMatch(nil, match)
	if err != nil || !ok {
		t.Fatalf("EvalStringMatch: ok=%v err=%v", ok, err)
	}
	want := columnar.NewBitmap(dec.Len())
	for i, s := range dec.Strings() {
		if !dec.IsNull(i) && match(s) {
			want.Set(i)
		}
	}
	if !bitmapsEqual(got, want) {
		t.Fatal("EvalStringMatch disagrees with eager eval")
	}
}

func TestKernelUnsupportedFallsBack(t *testing.T) {
	v := columnar.FromStrings([]string{"unique-a", "unique-b", "unique-c"})
	ec := forced(EncodeColumn(v), Plain, stringBlock(Plain, v.Strings()))
	if _, ok, err := ec.EvalStringMatch(nil, func(string) bool { return true }); ok || err != nil {
		t.Fatalf("plain strings should report unsupported, got ok=%v err=%v", ok, err)
	}
	fv := EncodeColumn(columnar.FromFloat64s([]float64{1, 2}))
	if _, ok, _ := fv.EvalIntRange(nil, 0, 1); ok {
		t.Fatal("float column should report unsupported for int kernel")
	}
}

func TestKernelEmptyDictionary(t *testing.T) {
	v := columnar.NewVector(columnar.String, 0)
	ec := forced(EncodeColumn(v), Dict, stringBlock(Dict, nil))
	bm, ok, err := ec.EvalStringMatch(nil, func(string) bool { return true })
	if err != nil || !ok {
		t.Fatalf("empty dict: ok=%v err=%v", ok, err)
	}
	if bm.Len() != 0 || bm.Count() != 0 {
		t.Fatalf("empty dict: got %d/%d bits", bm.Count(), bm.Len())
	}
	if dv, err := ec.DecodeFiltered(columnar.NewBitmap(0)); err != nil || dv.Len() != 0 {
		t.Fatalf("empty dict DecodeFiltered: len=%v err=%v", dv, err)
	}
}

func TestKernelAllNullColumn(t *testing.T) {
	v := columnar.NewVector(columnar.Int64, 64)
	for i := 0; i < 64; i++ {
		v.AppendNull()
	}
	ec := EncodeColumn(v)
	// Corrupt the payload: an all-null column must answer without
	// touching Data.
	ec.Data = []byte{0xde, 0xad}
	bm, ok, err := ec.EvalIntRange(nil, -1<<62, 1<<62)
	if err != nil || !ok {
		t.Fatalf("all-null: ok=%v err=%v", ok, err)
	}
	if bm.Count() != 0 {
		t.Fatalf("all-null column selected %d rows", bm.Count())
	}
}

func TestKernelSingleDistinctDict(t *testing.T) {
	vals := make([]string, 100)
	for i := range vals {
		vals[i] = "only"
	}
	ec := EncodeColumn(columnar.FromStrings(vals))
	if ec.Encoding != Dict {
		t.Fatalf("expected Dict, got %v", ec.Encoding)
	}
	bm, ok, err := ec.EvalStringMatch(nil, func(s string) bool { return s == "only" })
	if err != nil || !ok || bm.Count() != 100 {
		t.Fatalf("single-distinct dict eq: count=%d ok=%v err=%v", bm.Count(), ok, err)
	}
	bm, ok, err = ec.EvalStringMatch(nil, func(s string) bool { return s == "other" })
	if err != nil || !ok || bm.Count() != 0 {
		t.Fatalf("single-distinct dict miss: count=%d ok=%v err=%v", bm.Count(), ok, err)
	}
}

func TestKernelBitPackedMinEqMax(t *testing.T) {
	vals := make([]int64, 200)
	for i := range vals {
		vals[i] = 7
	}
	ec := encodeIntAs(t, columnar.FromInt64s(vals), BitPacked)
	if w := ec.Data[len(ec.Data)-1]; w != 0 {
		t.Fatalf("min==max column should pack to width 0, got %d", w)
	}
	bm, ok, err := ec.EvalIntRange(nil, 7, 7)
	if err != nil || !ok || bm.Count() != 200 {
		t.Fatalf("width-0 eq: count=%d ok=%v err=%v", bm.Count(), ok, err)
	}
	bm, ok, err = ec.EvalIntRange(nil, 8, 8)
	if err != nil || !ok || bm.Count() != 0 {
		t.Fatalf("width-0 miss: count=%d ok=%v err=%v", bm.Count(), ok, err)
	}
}

func TestKernelZoneMapShortCircuitNoDataAccess(t *testing.T) {
	vals := []int64{10, 20, 30, 40, 50}
	ec := encodeIntAs(t, columnar.FromInt64s(vals), BitPacked)
	// Replace Data with garbage and leave the stale checksum: any access
	// to Data would fail checksum or parsing, so a correct short circuit
	// must never see it.
	ec.Data = []byte{0xff, 0xff, 0xff}

	bm, ok, err := ec.EvalIntRange(nil, 100, 200) // entirely above MaxI
	if err != nil || !ok || bm.Count() != 0 {
		t.Fatalf("above-range short circuit: count=%d ok=%v err=%v", bm.Count(), ok, err)
	}
	bm, ok, err = ec.EvalIntRange(nil, -100, -1) // entirely below MinI
	if err != nil || !ok || bm.Count() != 0 {
		t.Fatalf("below-range short circuit: count=%d ok=%v err=%v", bm.Count(), ok, err)
	}
	bm, ok, err = ec.EvalIntRange(nil, 0, 1000) // covers [MinI, MaxI]
	if err != nil || !ok || bm.Count() != 5 {
		t.Fatalf("covering short circuit: count=%d ok=%v err=%v", bm.Count(), ok, err)
	}
	bm, ok, err = ec.EvalIntIn(nil, []int64{60, 70}) // members all outside zone map
	if err != nil || !ok || bm.Count() != 0 {
		t.Fatalf("IN short circuit: count=%d ok=%v err=%v", bm.Count(), ok, err)
	}
	// A range that genuinely needs the data must now surface corruption.
	if _, ok, err := ec.EvalIntRange(nil, 15, 25); ok && err == nil {
		t.Fatal("partial-overlap range on garbage data did not fail")
	}
}

func TestDecodeFilteredMatchesEagerGather(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	sel := columnar.NewBitmap(300)
	for i := 0; i < 300; i++ {
		if rng.Intn(4) == 0 {
			sel.Set(i)
		}
	}
	// The reference is the vector the column was encoded from, gathered.
	check := func(name string, in *columnar.Vector, ec *EncodedColumn) {
		t.Helper()
		want := in.Gather(sel.Indices(nil))
		got, err := ec.DecodeFiltered(sel)
		if err != nil {
			t.Fatalf("%s: DecodeFiltered: %v", name, err)
		}
		if got.Len() != want.Len() || got.ByteSize() != want.ByteSize() {
			t.Fatalf("%s: len/bytes %d/%d, want %d/%d", name, got.Len(), got.ByteSize(), want.Len(), want.ByteSize())
		}
		for i := 0; i < want.Len(); i++ {
			if got.Value(i) != want.Value(i) {
				t.Fatalf("%s: row %d = %v, want %v", name, i, got.Value(i), want.Value(i))
			}
		}
	}

	iv := intVectorWithNulls(rng, 300, 1<<16, 9)
	for _, enc := range []ColumnEncoding{RLE, DeltaVarint, BitPacked} {
		check(enc.String(), iv, encodeIntAs(t, iv, enc))
	}

	fv := columnar.NewVector(columnar.Float64, 300)
	sv := columnar.NewVector(columnar.String, 300)
	bv := columnar.NewVector(columnar.Bool, 300)
	cats := []string{"aa", "bbbb", "cccccc", "d"}
	for i := 0; i < 300; i++ {
		if i%17 == 0 {
			fv.AppendNull()
			sv.AppendNull()
			bv.AppendNull()
			continue
		}
		fv.AppendFloat64(rng.NormFloat64())
		sv.AppendString(cats[rng.Intn(len(cats))])
		bv.AppendBool(rng.Intn(2) == 0)
	}
	check("float", fv, EncodeColumn(fv))
	check("dict", sv, EncodeColumn(sv))
	check("bool", bv, EncodeColumn(bv))

	longs := columnar.NewVector(columnar.String, 300)
	for i := 0; i < 300; i++ {
		longs.AppendString(string(rune('a'+i%26)) + string(make([]byte, i%5)))
	}
	check("plain-strings", longs, forced(EncodeColumn(longs), Plain, stringBlock(Plain, longs.Strings())))
}

func TestGatherBytesProportional(t *testing.T) {
	vals := make([]int64, 10000)
	for i := range vals {
		vals[i] = int64(i % 1024)
	}
	ec := encodeIntAs(t, columnar.FromInt64s(vals), BitPacked)
	all := ec.GatherBytes(10000)
	tenth := ec.GatherBytes(1000)
	if tenth*8 > all {
		t.Fatalf("bit-packed gather of 10%% cost %d vs full %d: not proportional", tenth, all)
	}
	if ec.GatherBytes(0) != 0 {
		t.Fatal("GatherBytes(0) != 0")
	}
	if ec.GatherBytes(20000) != all {
		t.Fatal("GatherBytes over n should clamp to full cost")
	}
	// Stream codecs pay full freight regardless of k.
	rec := encodeIntAs(t, columnar.FromInt64s(vals), DeltaVarint)
	if rec.GatherBytes(1) != rec.GatherBytes(10000) {
		t.Fatal("delta gather should charge the full payload")
	}
}

func TestDecodedSizeMatchesVectorByteSize(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	cats := []string{"north", "south", "east", "west", "a-much-longer-region-name"}
	vectors := []*columnar.Vector{
		intVectorWithNulls(rng, 257, 1<<20, 0),
		intVectorWithNulls(rng, 257, 1<<20, 6),
	}
	sv := columnar.NewVector(columnar.String, 257)
	for i := 0; i < 257; i++ {
		if i%23 == 0 {
			sv.AppendNull()
		} else {
			sv.AppendString(cats[rng.Intn(len(cats))])
		}
	}
	vectors = append(vectors, sv)
	fv := columnar.NewVector(columnar.Float64, 100)
	for i := 0; i < 100; i++ {
		fv.AppendFloat64(rng.Float64())
	}
	vectors = append(vectors, fv)
	for vi, v := range vectors {
		ec := EncodeColumn(v)
		dec, err := ec.Decode()
		if err != nil {
			t.Fatalf("vector %d: %v", vi, err)
		}
		if got, want := ec.DecodedSize(), dec.ByteSize(); got != want {
			t.Fatalf("vector %d (%v %v): DecodedSize=%d, decoded ByteSize=%d", vi, ec.Type, ec.Encoding, got, want)
		}
	}
}
