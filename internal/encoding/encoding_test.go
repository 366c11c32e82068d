package encoding

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/columnar"
)

// intBlock is what codec enc's writer appends for vals: the Data
// EncodeColumn stores when it picks enc for them.
func intBlock(enc ColumnEncoding, vals []int64) []byte {
	switch enc {
	case RLE:
		return appendRLEInt64(nil, vals)
	case DeltaVarint:
		return appendDeltaVarint(nil, vals)
	}
	var lo, hi int64
	if len(vals) > 0 {
		lo, hi = slices.Min(vals), slices.Max(vals)
	}
	return appendBitPacked(nil, vals, lo, hi)
}

// stringBlock is intBlock for VARCHAR's codecs, DICT and PLAIN.
func stringBlock(enc ColumnEncoding, vals []string) []byte {
	if enc == Dict {
		d := buildDict(vals)
		return d.appendTo(nil)
	}
	return appendPlainStrings(nil, vals)
}

// wrap makes a block a codec's writer wrote for n rows a column with a
// valid checksum and no NULLs, so that a round trip reads it back through
// the one reader, EncodedColumn.Decode.
func wrap(typ columnar.Type, enc ColumnEncoding, n int, data []byte) *EncodedColumn {
	ec := &EncodedColumn{Type: typ, Encoding: enc, Stats: Stats{NumValues: n}, Data: data}
	ec.Checksum = ec.ComputeChecksum()
	return ec
}

// decodeInts writes vals with codec enc and decodes them back.
func decodeInts(enc ColumnEncoding, vals []int64) ([]int64, error) {
	v, err := wrap(columnar.Int64, enc, len(vals), intBlock(enc, vals)).Decode()
	if err != nil {
		return nil, err
	}
	return v.Int64s(), nil
}

func TestDeltaVarintRoundTrip(t *testing.T) {
	cases := [][]int64{
		nil,
		{},
		{0},
		{1, 2, 3, 4, 5},
		{-5, 1000, -3, math.MaxInt64, math.MinInt64, 0},
		{100, 100, 100},
	}
	for _, vals := range cases {
		got, err := decodeInts(DeltaVarint, vals)
		if err != nil {
			t.Fatalf("decode(%v): %v", vals, err)
		}
		if len(got) != len(vals) {
			t.Fatalf("len = %d, want %d", len(got), len(vals))
		}
		for i := range vals {
			if got[i] != vals[i] {
				t.Fatalf("round trip %v gave %v", vals, got)
			}
		}
	}
}

func TestDeltaVarintShrinksSorted(t *testing.T) {
	vals := make([]int64, 10000)
	for i := range vals {
		vals[i] = int64(1_000_000 + i)
	}
	enc := intBlock(DeltaVarint, vals)
	if len(enc) > len(vals)*2 {
		t.Errorf("sorted delta encoding is %d bytes for %d values; want <= 2B/value", len(enc), len(vals))
	}
}

func TestRLERoundTrip(t *testing.T) {
	cases := [][]int64{
		{},
		{7},
		{1, 1, 1, 2, 2, 3},
		{5, 4, 3, 2, 1},
		{-1, -1, math.MinInt64, math.MinInt64},
	}
	for _, vals := range cases {
		got, err := decodeInts(RLE, vals)
		if err != nil {
			t.Fatalf("decode(%v): %v", vals, err)
		}
		if !reflect.DeepEqual(got, append([]int64{}, vals...)) {
			t.Fatalf("round trip %v gave %v", vals, got)
		}
	}
}

func TestRLEShrinksConstant(t *testing.T) {
	vals := make([]int64, 100000)
	enc := intBlock(RLE, vals)
	if len(enc) > 32 {
		t.Errorf("constant column RLE = %d bytes, want tiny", len(enc))
	}
}

func TestBitPackedRoundTrip(t *testing.T) {
	cases := [][]int64{
		{},
		{42},
		{42, 42, 42},
		{0, 1, 2, 3, 4, 5, 6, 7},
		{-100, 100, 0, 55},
		// max-min overflows int64; the encoder's width computation uses
		// uint64, so this still round-trips (at width 64).
		{math.MinInt64, math.MaxInt64},
	}
	for _, vals := range cases {
		got, err := decodeInts(BitPacked, vals)
		if err != nil {
			t.Fatalf("decode(%v): %v", vals, err)
		}
		if len(got) != len(vals) {
			t.Fatalf("len mismatch for %v", vals)
		}
		for j := range vals {
			if got[j] != vals[j] {
				t.Fatalf("round trip %v gave %v", vals, got)
			}
		}
	}
}

func TestBitPackedProperty(t *testing.T) {
	f := func(vals []int64) bool {
		got, err := decodeInts(BitPacked, vals)
		if err != nil || len(got) != len(vals) {
			return false
		}
		for i := range vals {
			if got[i] != vals[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBitPackedNarrowDomain(t *testing.T) {
	// 100k values in [0,16): 4 bits each ≈ 50 KB.
	vals := make([]int64, 100000)
	for i := range vals {
		vals[i] = int64(i % 16)
	}
	enc := intBlock(BitPacked, vals)
	if len(enc) > 51000 {
		t.Errorf("4-bit domain packed to %d bytes, want ~50000", len(enc))
	}
}

func TestFloatBoolRoundTrip(t *testing.T) {
	fv := []float64{0, -1.5, math.Pi, math.Inf(1), math.SmallestNonzeroFloat64}
	gotF, err := wrap(columnar.Float64, Plain, len(fv), EncodeFloat64s(fv)).Decode()
	if err != nil || !reflect.DeepEqual(gotF.Float64s(), fv) {
		t.Fatalf("float round trip gave %v, err %v", gotF, err)
	}
	bv := []bool{true, false, true, true, false, false, true, false, true}
	gotB, err := wrap(columnar.Bool, Plain, len(bv), EncodeBools(bv)).Decode()
	if err != nil || !reflect.DeepEqual(gotB.Bools(), bv) {
		t.Fatalf("bool round trip gave %v, err %v", gotB, err)
	}
}

func TestDictRoundTrip(t *testing.T) {
	cases := [][]string{
		{},
		{"a"},
		{"us", "de", "us", "us", "ch", "de"},
		{"", "", "x"},
	}
	for _, vals := range cases {
		v, err := wrap(columnar.String, Dict, len(vals), stringBlock(Dict, vals)).Decode()
		if err != nil {
			t.Fatalf("decode(%v): %v", vals, err)
		}
		got := v.Strings()
		if len(got) != len(vals) {
			t.Fatalf("len mismatch for %v", vals)
		}
		for i := range vals {
			if got[i] != vals[i] {
				t.Fatalf("round trip %v gave %v", vals, got)
			}
		}
	}
}

func TestDictShrinksLowCardinality(t *testing.T) {
	vals := make([]string, 10000)
	countries := []string{"switzerland", "germany", "france", "italy"}
	for i := range vals {
		vals[i] = countries[i%len(countries)]
	}
	dict := stringBlock(Dict, vals)
	plain := stringBlock(Plain, vals)
	if len(dict) >= len(plain)/10 {
		t.Errorf("dict = %d bytes vs plain = %d; want >=10x smaller", len(dict), len(plain))
	}
}

func TestPlainStringsRoundTrip(t *testing.T) {
	vals := []string{"hello", "", "world", "日本語"}
	got, err := wrap(columnar.String, Plain, len(vals), stringBlock(Plain, vals)).Decode()
	if err != nil || !reflect.DeepEqual(got.Strings(), vals) {
		t.Fatalf("round trip gave %v, err %v", got, err)
	}
}

func TestLZRoundTrip(t *testing.T) {
	cases := [][]byte{
		nil,
		{},
		[]byte("a"),
		[]byte("abcabcabcabcabcabc"),
		[]byte("the quick brown fox jumps over the lazy dog"),
		bytes.Repeat([]byte{0}, 10000),
		bytes.Repeat([]byte("0123456789abcdef"), 100),
	}
	for _, data := range cases {
		got, err := DecompressLZ(CompressLZ(data))
		if err != nil {
			t.Fatalf("decompress: %v", err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("round trip changed data (len %d -> %d)", len(data), len(got))
		}
	}
}

func TestLZOverlappingMatch(t *testing.T) {
	// "aaaa..." forces matches that overlap their own output.
	data := bytes.Repeat([]byte("a"), 1000)
	comp := CompressLZ(data)
	if len(comp) > 50 {
		t.Errorf("1000 'a's compressed to %d bytes, want tiny", len(comp))
	}
	got, err := DecompressLZ(comp)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("overlapping match round trip failed: %v", err)
	}
}

func TestLZProperty(t *testing.T) {
	f := func(data []byte) bool {
		got, err := DecompressLZ(CompressLZ(data))
		return err == nil && bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestLZRejectsCorrupt(t *testing.T) {
	comp := CompressLZ([]byte("hello world hello world hello world"))
	for i := 1; i < len(comp); i++ {
		_, err := DecompressLZ(comp[:i])
		if err == nil {
			// Truncation may still decode if it lands exactly after the
			// declared size — but our size header prevents that.
			t.Fatalf("truncated stream at %d decoded without error", i)
		}
	}
}

func makeVec(t *testing.T, typ columnar.Type, n int) *columnar.Vector {
	t.Helper()
	v := columnar.NewVector(typ, n)
	for i := 0; i < n; i++ {
		switch typ {
		case columnar.Int64:
			v.AppendInt64(int64(i % 100))
		case columnar.Float64:
			v.AppendFloat64(float64(i) * 1.5)
		case columnar.String:
			v.AppendString([]string{"red", "green", "blue"}[i%3])
		case columnar.Bool:
			v.AppendBool(i%2 == 0)
		}
	}
	return v
}

func TestEncodeColumnRoundTripAllTypes(t *testing.T) {
	for _, typ := range []columnar.Type{columnar.Int64, columnar.Float64, columnar.String, columnar.Bool} {
		t.Run(typ.String(), func(t *testing.T) {
			v := makeVec(t, typ, 500)
			ec := EncodeColumn(v)
			back, err := ec.Decode()
			if err != nil {
				t.Fatal(err)
			}
			if back.Len() != v.Len() {
				t.Fatalf("len = %d, want %d", back.Len(), v.Len())
			}
			for i := 0; i < v.Len(); i++ {
				if !back.Value(i).Equal(v.Value(i)) {
					t.Fatalf("value %d differs: %v vs %v", i, back.Value(i), v.Value(i))
				}
			}
		})
	}
}

func TestEncodeColumnWithNulls(t *testing.T) {
	v := columnar.NewVector(columnar.Int64, 10)
	for i := 0; i < 10; i++ {
		if i%3 == 0 {
			v.AppendNull()
		} else {
			v.AppendInt64(int64(i))
		}
	}
	ec := EncodeColumn(v)
	if ec.Stats.NullCount != 4 {
		t.Errorf("NullCount = %d, want 4", ec.Stats.NullCount)
	}
	back, err := ec.Decode()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if back.IsNull(i) != v.IsNull(i) {
			t.Fatalf("null bit %d differs", i)
		}
		if !back.Value(i).Equal(v.Value(i)) {
			t.Fatalf("value %d differs", i)
		}
	}
}

func TestEncodeColumnStats(t *testing.T) {
	v := columnar.FromInt64s([]int64{5, -3, 12, 7})
	ec := EncodeColumn(v)
	if !ec.Stats.HasMinMax || ec.Stats.MinI != -3 || ec.Stats.MaxI != 12 {
		t.Errorf("int stats = %+v", ec.Stats)
	}
	if !ec.Stats.OverlapsInt(0, 1) {
		t.Error("OverlapsInt(0,1) = false, range [-3,12] overlaps")
	}
	if ec.Stats.OverlapsInt(13, 20) {
		t.Error("OverlapsInt(13,20) = true, range [-3,12] does not overlap")
	}
	if ec.Stats.OverlapsInt(-10, -4) {
		t.Error("OverlapsInt(-10,-4) = true, want false")
	}

	fv := columnar.FromFloat64s([]float64{1.5, 9.5})
	fec := EncodeColumn(fv)
	if !fec.Stats.HasMinMax || fec.Stats.MinF != 1.5 || fec.Stats.MaxF != 9.5 {
		t.Errorf("float zone map wrong: %+v", fec.Stats)
	}
}

func TestChecksumDetectsBitFlip(t *testing.T) {
	v := makeVec(t, columnar.Int64, 100)
	ec := EncodeColumn(v)
	ec.Data[len(ec.Data)/2] ^= 0x40
	if _, err := ec.Decode(); err == nil {
		t.Fatal("Decode accepted corrupted data")
	}
}

func TestColumnMarshalRoundTrip(t *testing.T) {
	for _, typ := range []columnar.Type{columnar.Int64, columnar.Float64, columnar.String, columnar.Bool} {
		v := makeVec(t, typ, 200)
		ec := EncodeColumn(v)
		blob := ec.Marshal()
		// Append trailing garbage to confirm consumed-length accuracy.
		blob = append(blob, 0xAA, 0xBB)
		back, n, err := UnmarshalColumn(blob)
		if err != nil {
			t.Fatal(err)
		}
		if n != len(blob)-2 {
			t.Fatalf("consumed %d, want %d", n, len(blob)-2)
		}
		if back.Type != ec.Type || back.Encoding != ec.Encoding || back.Checksum != ec.Checksum {
			t.Fatalf("header mismatch: %+v vs %+v", back, ec)
		}
		if back.Stats != ec.Stats {
			t.Fatalf("stats mismatch: %+v vs %+v", back.Stats, ec.Stats)
		}
		dec, err := back.Decode()
		if err != nil {
			t.Fatal(err)
		}
		if dec.Len() != v.Len() {
			t.Fatalf("decoded len %d, want %d", dec.Len(), v.Len())
		}
	}
}

func TestUnmarshalColumnRejectsTruncation(t *testing.T) {
	v := makeVec(t, columnar.String, 50)
	blob := EncodeColumn(v).Marshal()
	for i := 0; i < len(blob)-1; i += 7 {
		if _, _, err := UnmarshalColumn(blob[:i]); err == nil {
			t.Fatalf("truncated blob at %d unmarshalled without error", i)
		}
	}
	// A row count past 32 bits (here one that would be negative as an int)
	// is refused before Decode could size a selection by it.
	huge := append(binary.AppendUvarint(blob[:2:2], 1<<63), blob[3:]...) // 50 rows is a one-byte varint
	if _, _, err := UnmarshalColumn(huge); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("row count 1<<63 unmarshalled: %v", err)
	}
}

func TestEncodedSizeReflectsCompression(t *testing.T) {
	// A constant column should encode far smaller than its raw size.
	v := columnar.FromInt64s(make([]int64, 10000))
	ec := EncodeColumn(v)
	if ec.EncodedSize() > 100 {
		t.Errorf("constant column EncodedSize = %d, want tiny", ec.EncodedSize())
	}
	if ec.Encoding != RLE && ec.Encoding != BitPacked {
		t.Errorf("constant column chose %v", ec.Encoding)
	}
}
