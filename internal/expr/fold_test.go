package expr

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/columnar"
)

// NumGroups reports the number of groups currently held.
func (p *PartialAggregator) NumGroups() int { return len(p.groups) }

// NumGroups reports the number of result groups so far.
func (f *FinalAggregator) NumGroups() int { return f.partial.NumGroups() }

// UpdateInt is the universal update the per-function fold replaced: it
// folds one non-NULL BIGINT into every field of the state, whatever the
// function reads. It stays as the reference the fold is checked against.
func (s *AggState) UpdateInt(v int64) {
	first := s.Count == 0
	s.Count++
	s.SumI += v
	s.SumF += float64(v)
	if first || v < s.MinI {
		s.MinI = v
	}
	if first || v > s.MaxI {
		s.MaxI = v
	}
	if first || lessF(float64(v), s.MinF) {
		s.MinF = float64(v)
	}
	if first || lessF(s.MaxF, float64(v)) {
		s.MaxF = float64(v)
	}
}

// UpdateFloat is UpdateInt for one non-NULL DOUBLE.
func (s *AggState) UpdateFloat(v float64) {
	first := s.Count == 0
	s.Count++
	s.SumF += v
	s.SumI += int64(v)
	if first || lessF(v, s.MinF) {
		s.MinF = canonF(v)
	}
	if first || lessF(s.MaxF, v) {
		s.MaxF = canonF(v)
	}
	if first || int64(v) < s.MinI {
		s.MinI = int64(v)
	}
	if first || int64(v) > s.MaxI {
		s.MaxI = int64(v)
	}
}

// UpdateCountOnly folds a row that only contributes to COUNT.
func (s *AggState) UpdateCountOnly() { s.Count++ }

// readFields is st with every field zeroed that Result does not read for
// f over an input of type t: what the per-function fold keeps of what the
// universal update wrote.
func readFields(st AggState, f AggFunc, t columnar.Type) AggState {
	out := AggState{Count: st.Count}
	switch {
	case f == Count || t != columnar.Int64 && t != columnar.Float64:
	case f == Sum && t == columnar.Int64:
		out.SumI = st.SumI
	case f == Sum || f == Avg:
		out.SumF = st.SumF
	case f == Min && t == columnar.Int64:
		out.MinI = st.MinI
	case f == Min:
		out.MinF = st.MinF
	case f == Max && t == columnar.Int64:
		out.MaxI = st.MaxI
	case f == Max:
		out.MaxF = st.MaxF
	}
	return out
}

// sameState reports whether two states are equal field for field, floats
// bit for bit.
func sameState(a, b AggState) bool {
	return a.Count == b.Count && a.SumI == b.SumI && a.MinI == b.MinI && a.MaxI == b.MaxI &&
		math.Float64bits(a.SumF) == math.Float64bits(b.SumF) &&
		math.Float64bits(a.MinF) == math.Float64bits(b.MinF) &&
		math.Float64bits(a.MaxF) == math.Float64bits(b.MaxF)
}

var negNaN = math.Float64frombits(0xfff8_0000_0000_0001)

// For every function over every input type, the fold leaves each group's
// state equal to the universal update's with the fields the function does
// not read zeroed: the fields Result reads bit for bit, the others zero.
func TestFoldKeepsWhatResultReads(t *testing.T) {
	schema := columnar.NewSchema(
		columnar.Field{Name: "k", Type: columnar.Int64}, columnar.Field{Name: "i", Type: columnar.Int64},
		columnar.Field{Name: "f", Type: columnar.Float64}, columnar.Field{Name: "s", Type: columnar.String},
		columnar.Field{Name: "b", Type: columnar.Bool},
	)
	rng := rand.New(rand.NewSource(37))
	ints := []int64{0, 1, -1, math.MinInt64, math.MaxInt64, 1 << 40}
	flts := []float64{math.NaN(), negNaN, 0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), 1.5, 1e300}
	const n = 2500
	b := columnar.NewBatch(schema, n)
	sel := columnar.NewBitmap(n)
	for i := 0; i < n; i++ {
		row := []columnar.Value{columnar.IntValue(rng.Int63n(4)), columnar.IntValue(ints[rng.Intn(len(ints))]),
			columnar.FloatValue(flts[rng.Intn(len(flts))]), columnar.StringValue("x"), columnar.BoolValue(i%2 == 0)}
		for c := 1; c < len(row); c++ {
			if rng.Intn(7) == 0 {
				row[c] = columnar.NullValue(row[c].Type)
			}
		}
		b.AppendRow(row...)
		if rng.Intn(5) != 0 {
			sel.Set(i)
		}
	}
	in := b.WithSelection(sel)
	for _, f := range []AggFunc{Count, Sum, Min, Max, Avg} {
		for col := 1; col < schema.NumFields(); col++ {
			typ := schema.Fields[col].Type
			what := fmt.Sprintf("%v over %v", f, typ)
			p := NewPartialAggregator(GroupBy{GroupCols: []int{0}, Aggs: []AggSpec{{Func: f, Col: col}}}, schema, 0)
			p.AddRaw(in)
			want := map[int64]*AggState{}
			for r := 0; r < n; r++ {
				if !sel.Get(r) {
					continue
				}
				k := b.Col(0).Int64s()[r]
				if want[k] == nil {
					want[k] = new(AggState)
				}
				switch v := b.Col(col); {
				case f == Count:
					want[k].UpdateCountOnly()
				case v.IsNull(r):
				case typ == columnar.Int64:
					want[k].UpdateInt(v.Int64s()[r])
				case typ == columnar.Float64:
					want[k].UpdateFloat(v.Float64s()[r])
				default:
					want[k].UpdateCountOnly()
				}
			}
			if len(p.groups) != len(want) {
				t.Fatalf("%s: %d groups, want %d", what, len(p.groups), len(want))
			}
			for s, k := range p.keyCols[0].Int64s() {
				w := readFields(*want[k], f, typ)
				if got := p.states[s+1]; !sameState(got, w) {
					t.Fatalf("%s: group %d state %+v, want %+v", what, k, got, w)
				}
			}
		}
	}
}

// MIN and MAX of a DOUBLE follow one total order: -0.0 below +0.0, every
// NaN above +Inf and returned as math.NaN(). So they come out bit for bit
// the same whatever order the rows arrive in, however a budget spills
// them and whichever way round the partials are merged.
func TestMinMaxDoubleIgnoresOrder(t *testing.T) {
	schema := columnar.NewSchema(columnar.Field{Name: "k", Type: columnar.Int64}, columnar.Field{Name: "f", Type: columnar.Float64})
	spec := GroupBy{GroupCols: []int{0}, Aggs: []AggSpec{{Func: Min, Col: 1}, {Func: Max, Col: 1}}}
	// minMax is the MIN and MAX bits of group 0 of a final result.
	minMax := func(res *columnar.Batch) [2]uint64 {
		return [2]uint64{math.Float64bits(res.Col(1).Float64s()[0]), math.Float64bits(res.Col(2).Float64s()[0])}
	}
	bits := func(f float64) uint64 { return math.Float64bits(f) }
	negZero := math.Copysign(0, -1)
	rng := rand.New(rand.NewSource(41))
	for _, c := range []struct {
		vals []float64
		want [2]uint64
	}{
		{[]float64{math.NaN(), 1, 2}, [2]uint64{bits(1), bits(math.NaN())}},
		{[]float64{0, negZero}, [2]uint64{bits(negZero), bits(0)}},
		{[]float64{negNaN, 0, negZero, math.Inf(1), math.Inf(-1), 3, math.NaN()}, [2]uint64{bits(math.Inf(-1)), bits(math.NaN())}},
		{[]float64{negNaN}, [2]uint64{bits(math.NaN()), bits(math.NaN())}},
		{[]float64{negZero, negZero, 5}, [2]uint64{bits(negZero), bits(5)}},
	} {
		for perm := 0; perm < 24; perm++ {
			vals := append([]float64(nil), c.vals...)
			rng.Shuffle(len(vals), func(i, j int) { vals[i], vals[j] = vals[j], vals[i] })
			// Group 1's rows between group 0's make a budget of 1 spill.
			b := columnar.NewBatch(schema, 2*len(vals))
			for _, v := range vals {
				b.AppendRow(columnar.IntValue(0), columnar.FloatValue(v))
				b.AppendRow(columnar.IntValue(1), columnar.FloatValue(rng.NormFloat64()))
			}
			what := fmt.Sprintf("%v", vals)
			direct := NewFinalAggregator(spec, schema)
			direct.AddRaw(b)
			if got := minMax(direct.Result()); got != c.want {
				t.Fatalf("%s: MIN, MAX bits %x, want %x", what, got, c.want)
			}
			for _, budget := range []int{0, 1, 2, 3} {
				for cut := 0; cut <= b.NumRows(); cut++ {
					p := NewPartialAggregator(spec, schema, budget)
					parts := p.AddRaw(b.Slice(0, cut))
					if last := p.Flush(); last != nil {
						parts = append(parts, last)
					}
					parts = append(parts, p.AddRaw(b.Slice(cut, b.NumRows()))...)
					if last := p.Flush(); last != nil {
						parts = append(parts, last)
					}
					fwd, rev := NewFinalAggregator(spec, schema), NewFinalAggregator(spec, schema)
					for i := range parts {
						fwd.AddPartial(parts[i])
						rev.AddPartial(parts[len(parts)-1-i])
					}
					if got := minMax(fwd.Result()); got != c.want {
						t.Fatalf("%s budget %d cut %d: merged MIN, MAX bits %x, want %x", what, budget, cut, got, c.want)
					}
					if got := minMax(rev.Result()); got != c.want {
						t.Fatalf("%s budget %d cut %d: merged in reverse, MIN, MAX bits %x, want %x", what, budget, cut, got, c.want)
					}
				}
			}
		}
	}
}

// FuzzAddRaw checks AddRaw, Flush and Result against the row-at-a-time
// reference (refAgg, whose flushed states keep only what each function
// reads): every function over a BIGINT and a DOUBLE column whose values
// include NULLs, NaN of either sign, both zeros, both infinities and the
// BIGINT extremes (so sums wrap), grouped by a plain or dictionary-coded
// VARCHAR key, a BIGINT key, both or none, under a selection, with a
// budget of 0 to 3 groups. Row i's BIGINT and DOUBLE values come from byte
// i of vals, read cyclically; its inputs are NULL when bit 2i of nulls is
// set and its key when bit 2i+1 is and shape asks for NULL keys; it is
// selected when bit i of sel is set, every row when sel is empty. shape's
// bits 0-1 pick the key, bit 2 codes the VARCHAR key, bits 3-4 are the
// budget and bit 5 allows NULL keys.
func FuzzAddRaw(f *testing.F) {
	schema := columnar.NewSchema(
		columnar.Field{Name: "ks", Type: columnar.String}, columnar.Field{Name: "ki", Type: columnar.Int64},
		columnar.Field{Name: "v", Type: columnar.Int64}, columnar.Field{Name: "f", Type: columnar.Float64},
	)
	ints := []int64{0, 1, -1, math.MinInt64, math.MaxInt64, math.MinInt64 + 1, math.MaxInt64 - 1, 1 << 40}
	flts := []float64{math.NaN(), negNaN, 0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), 1.5, -2.25, 1e300, 0.1}
	keys := []string{"", "A", "N", "R", "OO"}
	var aggs []AggSpec
	for _, fn := range []AggFunc{Sum, Min, Max, Avg} {
		aggs = append(aggs, AggSpec{Func: fn, Col: 2}, AggSpec{Func: fn, Col: 3})
	}
	aggs = append(aggs, AggSpec{Func: Count})
	f.Fuzz(func(t *testing.T, vals, nulls, sel []byte, rows uint16, shape uint8) {
		n := int(rows) % 2100
		bit := func(bs []byte, i int) bool {
			i %= 8 * len(bs)
			return bs[i>>3]>>(i&7)&1 != 0
		}
		b := columnar.NewBatch(schema, n)
		for i := 0; i < n; i++ {
			var x byte
			if len(vals) > 0 {
				x = vals[i%len(vals)]
			}
			row := []columnar.Value{columnar.StringValue(keys[int(x>>4)%len(keys)]), columnar.IntValue(int64(x >> 4 % 3)),
				columnar.IntValue(ints[int(x)%len(ints)]), columnar.FloatValue(flts[int(x)%len(flts)])}
			if x >= 0xc0 {
				row[2], row[3] = columnar.IntValue(int64(int8(x))), columnar.FloatValue(float64(int8(x))/4)
			}
			if len(nulls) > 0 && bit(nulls, 2*i) {
				row[2], row[3] = columnar.NullValue(columnar.Int64), columnar.NullValue(columnar.Float64)
			}
			if len(nulls) > 0 && shape&32 != 0 && bit(nulls, 2*i+1) {
				row[0], row[1] = columnar.NullValue(columnar.String), columnar.NullValue(columnar.Int64)
			}
			b.AppendRow(row...)
		}
		if shape&4 != 0 {
			b = withColumn(b, 0, codeAgainst(b.Col(0), keys))
		}
		if len(sel) > 0 {
			bits := columnar.NewBitmap(n)
			for i := 0; i < n; i++ {
				if bit(sel, i) {
					bits.Set(i)
				}
			}
			b = b.WithSelection(bits)
		}
		spec := GroupBy{GroupCols: [][]int{{0}, {1}, nil, {0, 1}}[shape&3], Aggs: aggs}
		budget := int(shape>>3) & 3
		what := fmt.Sprintf("n=%d shape=%#x", n, shape)

		p := NewPartialAggregator(spec, schema, budget)
		ref := &refAgg{spec: spec, in: schema, max: budget, slot: map[string]int{}}
		got := p.AddRaw(b)
		ref.addRaw(b)
		if last := p.Flush(); last != nil {
			got = append(got, last)
		}
		ref.flush()
		if len(got) != len(ref.flushed) {
			t.Fatalf("%s: %d partial batches, want %d", what, len(got), len(ref.flushed))
		}
		for i := range got {
			sameBatchBits(t, fmt.Sprintf("%s: partial batch %d", what, i), got[i], ref.flushed[i])
		}

		final := NewFinalAggregator(spec, schema)
		final.AddRaw(b)
		whole := &refAgg{spec: spec, in: schema, slot: map[string]int{}}
		whole.addRaw(b)
		want := columnar.NewBatch(spec.OutputSchema(schema), len(whole.vals))
		for s, vals := range whole.vals {
			row := append([]columnar.Value(nil), vals...)
			for ai, a := range spec.Aggs {
				typ := columnar.Int64
				if a.Func != Count {
					typ = schema.Fields[a.Col].Type
				}
				row = append(row, whole.states[s][ai].Result(a.Func, typ))
			}
			want.AppendRow(row...)
		}
		sameGroups(t, what+": Result", final.Result(), want, len(spec.GroupCols))
	})
}
