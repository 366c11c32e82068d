package expr

import (
	"encoding/binary"
	"maps"
	"math"
	"math/bits"
	"slices"
	"strconv"
	"strings"

	"repro/internal/columnar"
)

// This file implements the split aggregation the paper's Section 4.4
// builds its staged pipeline from: a bounded-state PartialAggregator that
// any device along the data path can host (storage processor, sending
// NIC, receiving NIC), and a FinalAggregator on the compute node that
// merges partial states into exact results.
//
// Partial states travel between stages as ordinary batches with a
// self-describing schema: the group columns followed by seven state
// columns per aggregate (count, integer/float sums, integer/float
// mins/maxes). Each stage can therefore consume the previous stage's
// partials and emit (fewer) partials of the same shape — the "pipeline of
// group-by stages, each improving on the previous one" of Section 4.4.

// partialStateCols is the number of state columns emitted per AggSpec.
const partialStateCols = 7

// stateFields are the name suffixes and types of an aggregate's seven
// state columns, in wire order: an AggState's fields.
var stateFields = [partialStateCols]columnar.Field{
	{Name: "_cnt", Type: columnar.Int64}, {Name: "_sumi", Type: columnar.Int64}, {Name: "_sumf", Type: columnar.Float64},
	{Name: "_mini", Type: columnar.Int64}, {Name: "_maxi", Type: columnar.Int64},
	{Name: "_minf", Type: columnar.Float64}, {Name: "_maxf", Type: columnar.Float64},
}

// stateNames[i][k] names state column k of aggregate i ("a<i>_cnt" ...),
// made once for the first aggregates, so a flush names its columns
// without building strings.
var stateNames = func() (names [16][partialStateCols]string) {
	for i := range names {
		for k, f := range stateFields {
			names[i][k] = "a" + strconv.Itoa(i) + f.Name
		}
	}
	return names
}()

// PartialSchema derives the wire schema of partial aggregation results
// for spec over input schema in: the group columns, then an AggState's
// seven fields per aggregate whatever its function. A function's state
// holds only the fields its result reads (see AggState) and the others
// travel as zeros, so every partial batch of a spec has one width and
// the bytes a meter charges for it do not depend on the functions.
func PartialSchema(spec GroupBy, in *columnar.Schema) *columnar.Schema {
	fields := make([]columnar.Field, 0, len(spec.GroupCols)+partialStateCols*len(spec.Aggs))
	for _, c := range spec.GroupCols {
		fields = append(fields, in.Fields[c])
	}
	for i := range spec.Aggs {
		for k, f := range stateFields {
			if i < len(stateNames) {
				f.Name = stateNames[i][k]
			} else {
				f.Name = "a" + strconv.Itoa(i) + f.Name
			}
			fields = append(fields, f)
		}
	}
	return &columnar.Schema{Fields: fields}
}

// aggChunk is how many rows AddRaw and AddPartial assign to groups before
// folding them; the chunk's slot array lives on the stack.
const aggChunk = 1024

// PartialAggregator folds raw rows and/or upstream partials into bounded
// group state. When the number of groups would exceed MaxGroups, the
// accumulated partials are flushed downstream and the state is cleared —
// the "mostly stateless" discipline Section 3.3 demands of in-path
// operators.
type PartialAggregator struct {
	Spec      GroupBy
	In        *columnar.Schema
	MaxGroups int // 0 = unbounded

	// groups[s] is the encoded key (appendGroupKey) of the group in slot
	// s, in creation order; Result sorts by it. keyCols[j] holds group
	// column j's value of every slot, appended when the group is made,
	// and states[(s+1)*len(Spec.Aggs)+ai] is slot s's aggregate ai. The
	// first len(Spec.Aggs) states are scratch: a row whose slot is -1 (the
	// selection drops it, or its input is NULL) folds into them, so the
	// fold loops need no branch, and nothing reads them.
	groups  []string
	keyCols []*columnar.Vector
	states  []AggState

	// keys maps a group's encoded key (appendGroupKey) to its slot, made
	// on the first insert. With no group columns the one group is slot 0
	// and no map is needed.
	keys map[string]int32

	// remap[c] is the slot of code c of remapDict, or -1 until a row with
	// that code is met, when keys fills it in: a lone dictionary-coded key
	// finds its group by array index instead of by map, and pays for the
	// map once per code per dictionary. It belongs to the dictionary's
	// identity, not to its contents, so a batch with another dictionary
	// starts it over; Flush and Clone drop it, because slots are renumbered
	// or copied there.
	remap     []int32
	remapDict []string

	key         []byte // scratch for the encoded key being looked up
	partialCols []int  // AddPartial's group columns: 0..n-1 of the partial schema
}

// NewPartialAggregator builds a partial aggregator for spec over batches
// with schema in. Spec column indices refer to positions in in.
func NewPartialAggregator(spec GroupBy, in *columnar.Schema, maxGroups int) *PartialAggregator {
	p := &PartialAggregator{Spec: spec, In: in, MaxGroups: maxGroups, states: make([]AggState, len(spec.Aggs))}
	if n := len(spec.GroupCols); n > 0 {
		p.partialCols = make([]int, n)
		p.keyCols = make([]*columnar.Vector, n)
		for i, c := range spec.GroupCols {
			p.partialCols[i] = i
			p.keyCols[i] = columnar.NewVector(in.Fields[c].Type, 0)
		}
	}
	return p
}

// PartialSchema returns the schema of the batches this aggregator emits.
func (p *PartialAggregator) PartialSchema() *columnar.Schema {
	return PartialSchema(p.Spec, p.In)
}

// AddRaw folds a batch of raw input rows, only the selected ones when b
// carries a selection, returning any partial batches flushed due to the
// group budget.
func (p *PartialAggregator) AddRaw(b *columnar.Batch) []*columnar.Batch {
	return p.add(b, p.Spec.GroupCols, true)
}

// AddPartial folds a batch of upstream partials (schema PartialSchema),
// only the selected ones as AddRaw, returning any flushes. This is what
// lets stages chain.
func (p *PartialAggregator) AddPartial(b *columnar.Batch) []*columnar.Batch {
	return p.add(b, p.partialCols, false)
}

// add is AddRaw (raw) and AddPartial: a chunk of rows at a time, assign
// gives each selected row its group's slot, then fold (raw rows) or merge
// (partial states) updates the states by slot, one aggregate at a time.
// Each group still sees its rows in row order, so float sums come out
// bit for bit as a row-at-a-time loop's. When a new group meets a full
// budget, assign stops at its row: the rows before it are folded and
// flushed, and assignment resumes at that row, so spills happen exactly
// where a row-at-a-time loop would put them.
func (p *PartialAggregator) add(b *columnar.Batch, cols []int, raw bool) []*columnar.Batch {
	var slots [aggChunk]int32
	var flushed []*columnar.Batch
	for from, n := 0, b.NumRows(); from < n; {
		end := min(from+aggChunk, n)
		to := p.assign(b, cols, from, slots[:end-from])
		if raw {
			p.fold(b, from, slots[:to-from])
		} else {
			p.merge(b, from, slots[:to-from])
		}
		if to < end {
			flushed = append(flushed, p.Flush())
		}
		from = to
	}
	return flushed
}

// assign stores the group slots of rows from, from+1, ... in slots (-1
// for a row the selection drops), making groups as it meets them, and
// returns the row it stopped at: from+len(slots), or the first row whose
// new group the budget has no room for.
func (p *PartialAggregator) assign(b *columnar.Batch, cols []int, from int, slots []int32) int {
	sel := b.Selection()
	var key *columnar.Vector
	var codes []int32
	if len(cols) == 1 {
		key = b.Col(cols[0])
		if codes = key.Codes(); codes != nil {
			p.useDict(key.Dict())
			if key.Nulls() == nil && p.assignCoded(codes, sel, from, slots) {
				return from + len(slots)
			}
		}
	}
	for k := range slots {
		row := from + k
		if sel != nil && !sel.Get(row) {
			slots[k] = -1
			continue
		}
		coded := codes != nil && !key.IsNull(row)
		if coded && p.remap[codes[row]] >= 0 {
			slots[k] = p.remap[codes[row]]
			continue
		}
		var s int32
		var ok bool
		if len(cols) == 0 {
			ok = len(p.groups) > 0
		} else {
			p.key = appendGroupKey(p.key[:0], b, cols, row)
			s, ok = p.keys[string(p.key)] // the conversion does not allocate
		}
		if !ok {
			if s, ok = p.newGroup(b, cols, row); !ok {
				return row
			}
		}
		if coded {
			p.remap[codes[row]] = s
		}
		slots[k] = s
	}
	return from + len(slots)
}

// assignCoded is assign for a lone dictionary-coded key with no NULLs,
// without a branch per row: a row's slot is its code's remap entry, or
// -1 when the selection drops it. It reports false when a selected row's
// code has no group yet, leaving assign's loop to make it.
func (p *PartialAggregator) assignCoded(codes []int32, sel *columnar.Bitmap, from int, slots []int32) bool {
	miss := int32(0)
	for k, c := range codes[from : from+len(slots)] {
		in := int32(1)
		if row := from + k; sel != nil {
			in = int32(sel.Words()[row>>6]>>(row&63)) & 1
		}
		s := p.remap[c]
		slots[k], miss = s|(in-1), miss|s&-in // miss < 0: a selected row's code is unseen
	}
	return miss >= 0
}

// useDict points the remap at dict: kept when dict is the dictionary it
// maps, otherwise every code starts unseen.
func (p *PartialAggregator) useDict(dict []string) {
	if len(dict) == len(p.remapDict) && (len(dict) == 0 || &dict[0] == &p.remapDict[0]) {
		return
	}
	p.remapDict = dict
	p.remap = slices.Grow(p.remap[:0], len(dict))[:len(dict)]
	for c := range p.remap {
		p.remap[c] = -1
	}
}

// newGroup makes the group of row and files it in keys; ok is false when
// the budget has no room for it.
func (p *PartialAggregator) newGroup(b *columnar.Batch, cols []int, row int) (s int32, ok bool) {
	if p.MaxGroups > 0 && len(p.groups) >= p.MaxGroups {
		return 0, false
	}
	s = int32(len(p.groups))
	p.key = appendGroupKey(p.key[:0], b, cols, row)
	key := string(p.key)
	p.groups = append(p.groups, key)
	for j, c := range cols {
		p.keyCols[j].AppendFrom(b.Col(c), row)
	}
	p.states = append(p.states, make([]AggState, len(p.Spec.Aggs))...)
	if len(cols) > 0 {
		if p.keys == nil {
			p.keys = make(map[string]int32)
		}
		p.keys[key] = s
	}
	return s, true
}

// fold updates the states of rows from, from+1, ... in their slots, one
// aggregate at a time over its typed column, a slot of -1 into scratch.
// Each function and input type has a loop of its own that writes only
// the fields Result reads (see AggState). A column with NULLs first has
// its NULL rows' slots turned to -1 in a copy, so no loop asks IsNull of
// a row.
func (p *PartialAggregator) fold(b *columnar.Batch, from int, slots []int32) {
	var live [aggChunk]int32
	na := len(p.Spec.Aggs)
	for ai, spec := range p.Spec.Aggs {
		st := p.states[ai:] // slot s's state is st[int(s+1)*na]
		if spec.Func == Count {
			foldCount(st, na, slots)
			continue
		}
		col := b.Col(spec.Col)
		in := slots
		if nulls := col.Nulls(); nulls != nil {
			in = dropNulls(live[:len(slots)], slots, nulls, from)
		}
		switch col.Type() {
		case columnar.Int64:
			foldInts(st, na, spec.Func, in, col.Int64s()[from:])
		case columnar.Float64:
			foldFloats(st, na, spec.Func, in, col.Float64s()[from:])
		default: // a non-numeric input counts its non-NULL rows
			foldCount(st, na, in)
		}
	}
}

// dropNulls copies slots into dst, the slot of every row from+k that
// nulls marks turned to -1, and returns dst.
func dropNulls(dst, slots []int32, nulls *columnar.Bitmap, from int) []int32 {
	copy(dst, slots)
	words, end := nulls.Words(), min(from+len(slots), nulls.Len())
	for wi := from >> 6; wi<<6 < end; wi++ {
		for w := words[wi]; w != 0; w &= w - 1 {
			if row := wi<<6 + bits.TrailingZeros64(w); row >= from && row < end {
				dst[row-from] = -1
			}
		}
	}
	return dst
}

// foldCount counts each row in its slot's state: COUNT(*), and the
// non-NULL rows of a non-numeric input.
func foldCount(st []AggState, na int, slots []int32) {
	for _, s := range slots {
		st[int(s+1)*na].Count++
	}
}

// foldInts folds BIGINT values into the fields f reads: SumI for SUM,
// SumF for AVG, MinI or MaxI.
func foldInts(st []AggState, na int, f AggFunc, slots []int32, vals []int64) {
	vals = vals[:len(slots)]
	switch f {
	case Sum:
		for k, s := range slots {
			st[int(s+1)*na].Count++
			st[int(s+1)*na].SumI += vals[k]
		}
	case Avg:
		for k, s := range slots {
			st[int(s+1)*na].Count++
			st[int(s+1)*na].SumF += float64(vals[k])
		}
	case Min:
		for k, s := range slots {
			x := &st[int(s+1)*na]
			if x.Count == 0 || vals[k] < x.MinI {
				x.MinI = vals[k]
			}
			x.Count++
		}
	case Max:
		for k, s := range slots {
			x := &st[int(s+1)*na]
			if x.Count == 0 || vals[k] > x.MaxI {
				x.MaxI = vals[k]
			}
			x.Count++
		}
	}
}

// foldFloats folds DOUBLE values into the fields f reads: SumF for SUM
// and AVG, MinF or MaxF under lessF, a NaN stored as canonF's.
func foldFloats(st []AggState, na int, f AggFunc, slots []int32, vals []float64) {
	vals = vals[:len(slots)]
	switch f {
	case Sum, Avg:
		for k, s := range slots {
			st[int(s+1)*na].Count++
			st[int(s+1)*na].SumF += vals[k]
		}
	case Min:
		for k, s := range slots {
			x := &st[int(s+1)*na]
			if x.Count == 0 || lessF(vals[k], x.MinF) {
				x.MinF = canonF(vals[k])
			}
			x.Count++
		}
	case Max:
		for k, s := range slots {
			x := &st[int(s+1)*na]
			if x.Count == 0 || lessF(x.MaxF, vals[k]) {
				x.MaxF = canonF(vals[k])
			}
			x.Count++
		}
	}
}

// merge folds the partial states of rows from, from+1, ... into their
// slots' states, one aggregate's seven state columns at a time.
func (p *PartialAggregator) merge(b *columnar.Batch, from int, slots []int32) {
	na, ng := len(p.Spec.Aggs), len(p.Spec.GroupCols)
	for ai := range p.Spec.Aggs {
		base := ng + ai*partialStateCols
		cnt, sumI, sumF := b.Col(base).Int64s(), b.Col(base+1).Int64s(), b.Col(base+2).Float64s()
		minI, maxI := b.Col(base+3).Int64s(), b.Col(base+4).Int64s()
		minF, maxF := b.Col(base+5).Float64s(), b.Col(base+6).Float64s()
		for k, s := range slots {
			row := from + k
			st := AggState{
				Count: cnt[row], SumI: sumI[row], SumF: sumF[row],
				MinI: minI[row], MaxI: maxI[row], MinF: minF[row], MaxF: maxF[row],
			}
			p.states[int(s+1)*na+ai].Merge(&st)
		}
	}
}

// Clone deep-copies the aggregator's accumulated state, for stage-level
// checkpointing: either side can keep folding rows without affecting the
// other. Its key columns are views of the original's, capacity-clamped:
// nothing writes a group's values after the group is made, and the
// clone's next append copies them.
func (p *PartialAggregator) Clone() *PartialAggregator {
	c := *p
	c.groups = slices.Clone(p.groups)
	c.keyCols = make([]*columnar.Vector, len(p.keyCols))
	for j, v := range p.keyCols {
		c.keyCols[j] = v.Slice(0, v.Len())
	}
	c.states = slices.Clone(p.states)
	c.keys = maps.Clone(p.keys)
	c.key, c.remap, c.remapDict = nil, nil, nil
	return &c
}

// Flush emits all held groups as one partial batch (nil when empty) and
// clears the state. The batch is built a column at a time: the key
// columns are handed over as they are, and each state column is cut from
// one []int64 or one []float64, its header from one []columnar.Vector.
func (p *PartialAggregator) Flush() *columnar.Batch {
	n, na := len(p.groups), len(p.Spec.Aggs)
	if n == 0 {
		return nil
	}
	cols := make([]*columnar.Vector, 0, len(p.keyCols)+partialStateCols*na)
	for j, v := range p.keyCols {
		cols, p.keyCols[j] = append(cols, v), columnar.NewVector(v.Type(), 0)
	}
	ints, flts := make([]int64, 4*na*n), make([]float64, 3*na*n)
	vecs := make([]columnar.Vector, 0, partialStateCols*na)
	for ai := range p.Spec.Aggs {
		cnt, sumI, sumF, minI := cut(&ints, n), cut(&ints, n), cut(&flts, n), cut(&ints, n)
		maxI, minF, maxF := cut(&ints, n), cut(&flts, n), cut(&flts, n)
		for s := range n {
			st := &p.states[(s+1)*na+ai]
			cnt[s], sumI[s], sumF[s], minI[s] = st.Count, st.SumI, st.SumF, st.MinI
			maxI[s], minF[s], maxF[s] = st.MaxI, st.MinF, st.MaxF
		}
		vecs = append(vecs, *columnar.FromInt64s(cnt), *columnar.FromInt64s(sumI), *columnar.FromFloat64s(sumF),
			*columnar.FromInt64s(minI), *columnar.FromInt64s(maxI), *columnar.FromFloat64s(minF), *columnar.FromFloat64s(maxF))
	}
	for k := range vecs {
		cols = append(cols, &vecs[k])
	}
	clear(p.groups)
	p.groups, p.states = p.groups[:0], p.states[:na]
	clear(p.keys)
	p.remapDict = nil
	return columnar.BatchOf(p.PartialSchema(), cols...)
}

// cut returns the first n values of *slab, capacity-clamped, and moves
// *slab past them.
func cut[T any](slab *[]T, n int) []T {
	s := (*slab)[:n:n]
	*slab = (*slab)[n:]
	return s
}

// FinalAggregator merges partials (or raw rows) into exact final results
// on the compute node. It holds unbounded state, which is fine there.
type FinalAggregator struct {
	partial *PartialAggregator
	in      *columnar.Schema
}

// NewFinalAggregator builds the terminal aggregation stage for spec over
// original input schema in.
func NewFinalAggregator(spec GroupBy, in *columnar.Schema) *FinalAggregator {
	return &FinalAggregator{partial: NewPartialAggregator(spec, in, 0), in: in}
}

// AddRaw folds raw input rows (the selected ones, under a selection).
func (f *FinalAggregator) AddRaw(b *columnar.Batch) { f.partial.AddRaw(b) }

// AddPartial folds upstream partial batches.
func (f *FinalAggregator) AddPartial(b *columnar.Batch) { f.partial.AddPartial(b) }

// Clone deep-copies the aggregator's accumulated state (see
// PartialAggregator.Clone).
func (f *FinalAggregator) Clone() *FinalAggregator {
	return &FinalAggregator{partial: f.partial.Clone(), in: f.in}
}

// Result materializes the final aggregate values, sorted by group key for
// deterministic output, a column at a time: the key columns gathered in
// that order, and each aggregate's column cut from one []int64 or one
// []float64, as its result type says, NULL where its group had no input.
func (f *FinalAggregator) Result() *columnar.Batch {
	p := f.partial
	n, na, nk := len(p.groups), len(p.Spec.Aggs), len(p.keyCols)
	schema := p.Spec.OutputSchema(f.in)
	order := make([]int, n)
	for s := range order {
		order[s] = s
	}
	slices.SortFunc(order, func(a, b int) int { return strings.Compare(p.groups[a], p.groups[b]) })
	cols := make([]*columnar.Vector, 0, nk+na)
	for _, v := range p.keyCols {
		cols = append(cols, v.Gather(order))
	}
	floats := 0
	for _, fld := range schema.Fields[nk:] {
		if fld.Type == columnar.Float64 {
			floats++
		}
	}
	ints, flts := make([]int64, (na-floats)*n), make([]float64, floats*n)
	vecs := make([]columnar.Vector, na)
	for ai, a := range p.Spec.Aggs {
		var iv []int64
		var fv []float64
		var nulls *columnar.Bitmap
		if schema.Fields[nk+ai].Type == columnar.Float64 {
			fv = cut(&flts, n)
			vecs[ai] = *columnar.FromFloat64s(fv)
		} else {
			iv = cut(&ints, n)
			vecs[ai] = *columnar.FromInt64s(iv)
		}
		for k, s := range order {
			st := &p.states[(s+1)*na+ai]
			if i, x := st.final(a.Func); fv != nil {
				fv[k] = x
			} else {
				iv[k] = i
			}
			if st.Count == 0 && a.Func != Count {
				if nulls == nil {
					nulls = columnar.NewBitmap(n)
				}
				nulls.Set(k) // SetNulls zeroes its value
			}
		}
		if nulls != nil {
			vecs[ai].SetNulls(nulls)
		}
		cols = append(cols, &vecs[ai])
	}
	return columnar.BatchOf(schema, cols...)
}

// appendGroupKey appends to buf a collision-free byte key of row's values
// in columns cols of b, read from the typed vectors: per column its type,
// a NULL flag and the value, a string length-prefixed. The two zeros of a
// DOUBLE are one key, as they are equal under =.
func appendGroupKey(buf []byte, b *columnar.Batch, cols []int, row int) []byte {
	for _, c := range cols {
		col := b.Col(c)
		buf = append(buf, byte(col.Type()))
		if col.IsNull(row) {
			buf = append(buf, 0)
			continue
		}
		buf = append(buf, 1)
		switch col.Type() {
		case columnar.Int64:
			buf = binary.LittleEndian.AppendUint64(buf, uint64(col.Int64s()[row]))
		case columnar.Float64:
			f := col.Float64s()[row]
			if f == 0 {
				f = 0 // -0.0 becomes +0.0
			}
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(f))
		case columnar.String:
			s := col.StringAt(row)
			buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s)))
			buf = append(buf, s...)
		case columnar.Bool:
			if col.Bools()[row] {
				buf = append(buf, 1)
			} else {
				buf = append(buf, 0)
			}
		}
	}
	return buf
}

// Rebase returns a copy of the GroupBy with all column indices translated
// through m, used when a spec expressed over a table schema is evaluated
// against a batch holding only a subset of columns.
func (g GroupBy) Rebase(m func(int) int) GroupBy {
	out := GroupBy{GroupCols: make([]int, len(g.GroupCols)), Aggs: make([]AggSpec, len(g.Aggs))}
	for i, c := range g.GroupCols {
		out.GroupCols[i] = m(c)
	}
	for i, a := range g.Aggs {
		out.Aggs[i] = AggSpec{Func: a.Func, Col: a.Col}
		if a.Func != Count {
			out.Aggs[i].Col = m(a.Col)
		}
	}
	return out
}
