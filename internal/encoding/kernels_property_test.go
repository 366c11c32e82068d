package encoding

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/columnar"
)

// The kernels' typed loops read packed values with unaligned 8-byte
// loads, compare in wrapping arithmetic and store results a word at a
// time. These tests pin them, bit for bit, to decode-then-compare over
// every bit width and over the row counts around a word boundary.

var propertyRows = []int{0, 1, 63, 64, 65, 127, 1000, 4097, 65536}

// intColumn assembles an encoded Int64 column by hand, so the packed
// width is decided by vals alone (a NULL slot keeps whatever value vals
// gives it) and the zone map can be left out to force the value walk.
func intColumn(vals []int64, nulls []bool, enc ColumnEncoding, zoneMap bool) *EncodedColumn {
	ec := &EncodedColumn{Type: columnar.Int64, Encoding: enc}
	ec.Stats.NumValues = len(vals)
	for i, v := range vals {
		if nulls != nil && nulls[i] {
			ec.Stats.NullCount++
			continue
		}
		if !ec.Stats.HasMinMax {
			ec.Stats.HasMinMax, ec.Stats.MinI, ec.Stats.MaxI = true, v, v
		}
		ec.Stats.MinI, ec.Stats.MaxI = min(ec.Stats.MinI, v), max(ec.Stats.MaxI, v)
	}
	ec.Stats.HasMinMax = ec.Stats.HasMinMax && zoneMap
	if ec.Stats.NullCount > 0 {
		ec.Nulls = EncodeBools(nulls)
	}
	ec.Data = intBlock(enc, vals)
	ec.Checksum = ec.ComputeChecksum()
	return ec
}

// nullMask marks every seventh row and the last one NULL.
func nullMask(n int) []bool {
	nulls := make([]bool, n)
	for i := range nulls {
		nulls[i] = i%7 == 3 || i == n-1
	}
	return nulls
}

// checkSelection compares a kernel's bitmap with the reference decision
// per row, and its population count with the reference's — a bit left
// set beyond Len would show there.
func checkSelection(t *testing.T, what string, got *columnar.Bitmap, n int, want func(i int) bool) {
	t.Helper()
	if got.Len() != n {
		t.Fatalf("%s: bitmap has %d bits, want %d", what, got.Len(), n)
	}
	count := 0
	for i := 0; i < n; i++ {
		w := want(i)
		if w {
			count++
		}
		if got.Get(i) != w {
			t.Fatalf("%s: row %d = %v, want %v", what, i, got.Get(i), w)
		}
	}
	if got.Count() != count {
		t.Fatalf("%s: Count() = %d, want %d", what, got.Count(), count)
	}
}

// saturating lo+d without wrapping past either end of int64.
func satAdd(v int64, d int64) int64 {
	if d > 0 && v > math.MaxInt64-d {
		return math.MaxInt64
	}
	if d < 0 && v < math.MinInt64-d {
		return math.MinInt64
	}
	return v + d
}

func TestIntKernelsMatchDecodeAtEveryWidth(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	widths := []uint{64}
	for w := uint(0); w <= 56; w++ {
		widths = append(widths, w)
	}
	for _, width := range widths {
		mask := uint64(1)<<width - 1 // all ones at 64
		// Three frames of reference: zero, a negative minimum, and one
		// whose largest value is maxInt64 exactly, where a bound shifted
		// by min would overflow if it were clamped carelessly.
		mins := []int64{0, -(1 << 40) - 12345, int64(uint64(math.MaxInt64) - mask)}
		if width == 64 {
			mins = []int64{math.MinInt64}
		}
		for _, n := range propertyRows {
			for mi, minV := range mins {
				if n == 65536 && mi != len(mins)-1 {
					continue // the big column once per width is enough
				}
				vals := make([]int64, n)
				for i := range vals {
					vals[i] = int64(uint64(minV) + rng.Uint64()&mask)
				}
				if n >= 2 { // pin the width: both ends of the frame are present
					vals[rng.Intn(n/2)] = minV
					vals[n/2+rng.Intn(n-n/2)] = int64(uint64(minV) + mask)
				}
				if dec, err := decodeInts(BitPacked, vals); err != nil || !slices.Equal(dec, vals) {
					t.Fatalf("width %d n %d: Decode does not return the values packed (%v)", width, n, err)
				}
				for _, nulls := range [][]bool{nil, nullMask(n)} {
					for _, zoneMap := range []bool{true, false} {
						if n == 65536 && zoneMap {
							continue // the short circuits do not depend on n
						}
						ec := intColumn(vals, nulls, BitPacked, zoneMap)
						if n >= 2 {
							if r, err := newBitPackedReader(ec.Data); err != nil || r.width != width {
								t.Fatalf("width %d n %d: packed at width %d (%v)", width, n, r.width, err)
							}
						}
						what := fmt.Sprintf("BITPACK width=%d n=%d min=%d nulls=%v zonemap=%v", width, n, minV, nulls != nil, zoneMap)
						checkIntKernels(t, rng, what, ec, vals, nulls)
					}
				}
				if n <= 1000 && width%8 == 0 { // the stream codecs have no width to sweep
					for _, enc := range []ColumnEncoding{RLE, DeltaVarint} {
						ec := intColumn(vals, nullMask(n), enc, false)
						checkIntKernels(t, rng, fmt.Sprintf("%v width=%d n=%d min=%d", enc, width, n, minV), ec, vals, nullMask(n))
					}
				}
			}
		}
	}
}

// checkIntKernels runs EvalIntRange and EvalIntIn over ranges and sets
// chosen around the column's own frame and around the ends of int64,
// against a comparison per row of vals, which the caller has checked is
// what the column decodes to.
func checkIntKernels(t *testing.T, rng *rand.Rand, what string, ec *EncodedColumn, vals []int64, nulls []bool) {
	t.Helper()
	n := len(vals)
	isNull := func(i int) bool { return nulls != nil && nulls[i] }
	lowest, highest, some := int64(0), int64(0), int64(0)
	if n > 0 {
		lowest, highest, some = vals[0], vals[0], vals[rng.Intn(n)]
		for _, v := range vals {
			lowest, highest = min(lowest, v), max(highest, v)
		}
	}
	quarter := int64((uint64(highest) - uint64(lowest)) / 4)
	ranges := [][2]int64{
		{satAdd(lowest, quarter), satAdd(highest, -quarter)},
		{some, some},
		{highest, lowest - 1},                       // lo > hi unless the frame is one value wide
		{math.MaxInt64, math.MinInt64},              // lo > hi at the extremes
		{math.MinInt64, math.MaxInt64},              // everything
		{math.MinInt64, some},                       // open below
		{some, math.MaxInt64},                       // open above
		{satAdd(lowest, 1), satAdd(highest, 1<<20)}, // upper bound beyond min+mask
		{satAdd(lowest, -(1 << 20)), satAdd(highest, -1)},
		{satAdd(highest, 1), math.MaxInt64}, // wholly above (empty when highest is maxInt64)
	}
	for _, r := range ranges {
		lo, hi := r[0], r[1]
		got, ok, err := ec.EvalIntRange(nil, lo, hi)
		if err != nil || !ok {
			t.Fatalf("%s: EvalIntRange(%d, %d): ok=%v err=%v", what, lo, hi, ok, err)
		}
		checkSelection(t, fmt.Sprintf("%s range [%d, %d]", what, lo, hi), got, n, func(i int) bool {
			return !isNull(i) && vals[i] >= lo && vals[i] <= hi
		})
	}
	sets := [][]int64{
		{some},
		{lowest, highest, some, satAdd(some, 1), math.MinInt64, math.MaxInt64},
		{satAdd(highest, 1), satAdd(lowest, -1)}, // nothing in the frame (unless it touches an end of int64)
	}
	for _, set := range sets {
		got, ok, err := ec.EvalIntIn(nil, set)
		if err != nil || !ok {
			t.Fatalf("%s: EvalIntIn(%v): ok=%v err=%v", what, set, ok, err)
		}
		checkSelection(t, fmt.Sprintf("%s IN %v", what, set), got, n, func(i int) bool {
			if isNull(i) {
				return false
			}
			for _, m := range set {
				if vals[i] == m {
					return true
				}
			}
			return false
		})
	}
}

func TestStringMatchMatchesDecodeAtEveryCodeWidth(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, distinct := range []int{1, 2, 3, 17, 300, 5000} { // code widths 0, 1, 2, 5, 9, 13
		for _, n := range propertyRows {
			strs := make([]string, n)
			for i := range strs {
				strs[i] = fmt.Sprintf("s%04d", rng.Intn(distinct))
			}
			for _, nulls := range [][]bool{nil, nullMask(n)} {
				ec := &EncodedColumn{Type: columnar.String, Encoding: Dict, Data: stringBlock(Dict, strs)}
				ec.Stats.NumValues = n
				if nulls != nil && n > 0 {
					ec.Nulls = EncodeBools(nulls)
					for _, isNull := range nulls {
						if isNull {
							ec.Stats.NullCount++
						}
					}
				}
				ec.Checksum = ec.ComputeChecksum()
				match := func(s string) bool { return s[len(s)-1]%3 == 0 }
				got, ok, err := ec.EvalStringMatch(nil, match)
				what := fmt.Sprintf("DICT distinct=%d n=%d nulls=%v", distinct, n, nulls != nil)
				if err != nil || !ok {
					t.Fatalf("%s: ok=%v err=%v", what, ok, err)
				}
				checkSelection(t, what, got, n, func(i int) bool {
					return !(ec.Nulls != nil && nulls[i]) && match(strs[i])
				})
			}
		}
	}
}

// TestFlippedPayloadByteIsErrCorrupt: every path that reads Data —
// each kernel, the gather-decode and the eager decode — checks the CRC
// first, so one flipped byte anywhere in the payload is ErrCorrupt and
// never a wrong answer.
func TestFlippedPayloadByteIsErrCorrupt(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	ints := make([]int64, 1000)
	floats := make([]float64, 1000)
	strs := make([]string, 1000)
	for i := range ints {
		ints[i] = 5000 + rng.Int63n(4000)
		floats[i] = rng.Float64()
		strs[i] = fmt.Sprintf("s%02d", rng.Intn(40))
	}
	dict := EncodeColumn(columnar.FromStrings(strs))
	if dict.Encoding != Dict {
		t.Fatalf("strings encoded as %v, want DICT", dict.Encoding)
	}
	columns := map[string]*EncodedColumn{
		"BITPACK": intColumn(ints, nullMask(len(ints)), BitPacked, true),
		"RLE":     intColumn(ints, nil, RLE, true),
		"DELTA":   intColumn(ints, nil, DeltaVarint, true),
		"float":   EncodeColumn(columnar.FromFloat64s(floats)),
		"DICT":    dict,
	}
	sel := columnar.NewBitmap(len(ints))
	sel.Fill(10, 500)
	for name, clean := range columns {
		for _, at := range []int{0, len(clean.Data) / 2, len(clean.Data) - 1} {
			ec := *clean
			ec.Data = append([]byte(nil), clean.Data...)
			ec.Data[at] ^= 0x10
			reads := map[string]func() error{
				"Decode":         func() error { _, err := ec.Decode(); return err },
				"DecodeFiltered": func() error { _, err := ec.DecodeFiltered(sel); return err },
			}
			switch ec.Type {
			case columnar.Int64:
				reads["EvalIntRange"] = func() error { _, _, err := ec.EvalIntRange(nil, 6000, 7000); return err }
				reads["EvalIntIn"] = func() error { _, _, err := ec.EvalIntIn(nil, []int64{6000, 7000}); return err }
			case columnar.Float64:
				reads["EvalFloatRange"] = func() error { _, _, err := ec.EvalFloatRange(nil, 0.25, 0.75, true, false); return err }
			case columnar.String:
				reads["EvalStringMatch"] = func() error {
					_, _, err := ec.EvalStringMatch(nil, func(s string) bool { return s < "s20" })
					return err
				}
			}
			for read, fn := range reads {
				if err := fn(); !errors.Is(err, ErrCorrupt) {
					t.Errorf("%s byte %d flipped: %s returned %v, want ErrCorrupt", name, at, read, err)
				}
			}
		}
	}
}

// EvalFloatRange builds its words without a branch, so the bound tests
// are bit arithmetic rather than Go's && and ||: pinned here to the
// per-row comparison over every inclusive/exclusive pair, bounds at the
// infinities and at NaN, a column holding NaN, ±Inf and ±0, NULL rows and
// row counts around a word boundary. NaN is in no range.
func TestFloatRangeMatchesPerRowAtEveryLength(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	nan, inf := math.NaN(), math.Inf(1)
	specials := []float64{nan, inf, -inf, 0, math.Copysign(0, -1), 0.5}
	for _, n := range propertyRows {
		vals := make([]float64, n)
		for i := range vals {
			if i%5 == 0 {
				vals[i] = specials[rng.Intn(len(specials))]
			} else {
				vals[i] = float64(rng.Intn(9)) / 8 // repeats, so bounds land on values
			}
		}
		for _, nulls := range [][]bool{nil, nullMask(n)} {
			v := columnar.FromFloat64s(slices.Clone(vals))
			if nulls != nil && n > 0 {
				bm := columnar.NewBitmap(n)
				for i, isNull := range nulls {
					if isNull {
						bm.Set(i)
					}
				}
				v.SetNulls(bm)
			}
			ec := EncodeColumn(v)
			ec.Stats.HasMinMax = false // walk the values, whatever the bounds
			for _, b := range [][2]float64{{0.25, 0.75}, {0.5, 0.5}, {0.75, 0.25}, {-inf, inf}, {-inf, 0}, {0, inf}, {nan, 1}, {0, nan}, {nan, nan}} {
				for _, inc := range [][2]bool{{true, true}, {true, false}, {false, true}, {false, false}} {
					lo, hi, incLo, incHi := b[0], b[1], inc[0], inc[1]
					got, ok, err := ec.EvalFloatRange(nil, lo, hi, incLo, incHi)
					what := fmt.Sprintf("n=%d nulls=%v range %v..%v inc=%v/%v", n, nulls != nil, lo, hi, incLo, incHi)
					if err != nil || !ok {
						t.Fatalf("%s: ok=%v err=%v", what, ok, err)
					}
					checkSelection(t, what, got, n, func(i int) bool {
						x := vals[i]
						return !v.IsNull(i) && (x > lo || incLo && x == lo) && (x < hi || incHi && x == hi)
					})
				}
			}
		}
	}
}

// selectDelta stores every running sum at the next free slot of dst and
// moves on only past a selected row, skipping the store once dst is full.
// The selections that matter are the ones whose last set bit is not the
// column's last row — the rows after it must not overwrite its value, nor
// write past dst — beside empty and full ones, at lengths around a word.
func TestSelectDeltaKeepsTheLastSelectedValue(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	for _, n := range []int{1, 2, 63, 64, 65, 127, 130, 1000} {
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = int64(i)*3 + rng.Int63n(5) - 2 // one-byte deltas of either sign
		}
		if n > 4 {
			vals[n/2] = math.MaxInt64 // a long varint mid-stream
			vals[n/2+1] = math.MinInt64
		}
		ec := intColumn(vals, nil, DeltaVarint, false)
		shapes := map[string]func(i int) bool{
			"empty":               func(int) bool { return false },
			"full":                func(int) bool { return true },
			"first row only":      func(i int) bool { return i == 0 },
			"all but the last":    func(i int) bool { return i < n-1 },
			"last row only":       func(i int) bool { return i == n-1 },
			"first half":          func(i int) bool { return i < n/2 },
			"even rows":           func(i int) bool { return i%2 == 0 && i < n-1 },
			"random, last is off": func(i int) bool { return i < n-1 && rng.Intn(3) == 0 },
		}
		for name, keep := range shapes {
			sel := columnar.NewBitmap(n)
			var want []int64
			for i := 0; i < n; i++ {
				if keep(i) {
					sel.Set(i)
					want = append(want, vals[i])
				}
			}
			got, err := ec.DecodeFiltered(sel)
			if err != nil {
				t.Fatalf("n=%d %s: %v", n, name, err)
			}
			if !slices.Equal(got.Int64s(), want) {
				t.Fatalf("n=%d %s: got %v, want %v", n, name, got.Int64s(), want)
			}
		}
	}
}

// FuzzEvalIntRange packs values at any BITPACK width under any frame
// minimum — one whose largest value passes maxInt64 and wraps included,
// which no encoder writes but a payload can hold — and checks
// EvalIntRange, and EvalIntIn over the range's two ends, against a
// comparison per row of what the column decodes to. The range is given
// relative to the frame, so small offsets land inside it. Value i is the
// eight bytes of vals from 8i on, read cyclically, under the width's mask;
// row i is NULL when bit i of nulls, read cyclically, is set.
func FuzzEvalIntRange(f *testing.F) {
	f.Fuzz(func(t *testing.T, width uint8, frameMin int64, vals, nulls []byte, rows uint16, loOff, hiOff int64) {
		w := uint(width) % 58
		if w == 57 {
			w = 64
		}
		mask := uint64(1)<<w - 1 // all ones at 64
		n := int(rows) % 4200
		col := make([]int64, n)
		for i := range col {
			var d uint64
			for j := 0; j < 8 && len(vals) > 0; j++ {
				d |= uint64(vals[(8*i+j)%len(vals)]) << (8 * j)
			}
			col[i] = int64(uint64(frameMin) + d&mask)
		}
		var isNull []bool
		if len(nulls) > 0 && n > 0 {
			isNull = make([]bool, n)
			for i := range isNull {
				b := i % (8 * len(nulls))
				isNull[i] = nulls[b>>3]>>(b&7)&1 != 0
			}
		}
		ec := &EncodedColumn{Type: columnar.Int64, Encoding: BitPacked, Stats: Stats{NumValues: n}}
		ec.Data = appendBitPacked(nil, col, frameMin, int64(uint64(frameMin)+mask))
		for _, null := range isNull {
			if null {
				ec.Stats.NullCount++
			}
		}
		if isNull != nil {
			ec.Nulls = EncodeBools(isNull)
		}
		ec.Checksum = ec.ComputeChecksum()
		if dec, err := ec.Decode(); err != nil || !slices.Equal(dec.Int64s(), col) && ec.Stats.NullCount == 0 {
			t.Fatalf("width %d: the column does not decode to its values (%v)", w, err)
		}
		lo, hi := frameMin+loOff, frameMin+hiOff
		what := fmt.Sprintf("width=%d min=%d n=%d range [%d, %d]", w, frameMin, n, lo, hi)
		got, ok, err := ec.EvalIntRange(nil, lo, hi)
		if err != nil || !ok {
			t.Fatalf("%s: ok=%v err=%v", what, ok, err)
		}
		checkSelection(t, what, got, n, func(i int) bool {
			return (isNull == nil || !isNull[i]) && col[i] >= lo && col[i] <= hi
		})
		got, ok, err = ec.EvalIntIn(nil, []int64{lo, hi})
		if err != nil || !ok {
			t.Fatalf("%s IN: ok=%v err=%v", what, ok, err)
		}
		checkSelection(t, what+" IN", got, n, func(i int) bool {
			return (isNull == nil || !isNull[i]) && (col[i] == lo || col[i] == hi)
		})
	})
}

var evalSink *columnar.Bitmap

// BenchmarkEvalIntRange times EvalIntRange, CRC included, over a
// 65,536-row BITPACK column of uniform values at widths on both sides of
// swarMinValues — 8, 12, 17 and 20 take the SWAR word, 30 rangeWord —
// with about 1 % and 50 % of the rows in the range, and reports ns/row.
func BenchmarkEvalIntRange(b *testing.B) {
	const n = 65536
	for _, width := range []uint{8, 12, 17, 20, 30} {
		rng := rand.New(rand.NewSource(int64(width)))
		mask := uint64(1)<<width - 1
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = int64(rng.Uint64() & mask)
		}
		vals[0], vals[1] = 0, int64(mask) // pin the width
		ec := intColumn(vals, nil, BitPacked, true)
		for _, pct := range []uint64{1, 50} {
			lo := int64(mask / 4)
			hi := lo + int64((mask+1)*pct/100) - 1
			b.Run(fmt.Sprintf("width=%d/sel=%d%%", width, pct), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					bm, _, err := ec.EvalIntRange(nil, lo, hi)
					if err != nil {
						b.Fatal(err)
					}
					evalSink = bm
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/row")
			})
		}
	}
}
