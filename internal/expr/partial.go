package expr

import (
	"encoding/binary"
	"fmt"
	"maps"
	"math"
	"slices"
	"sort"

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

// PartialSchema derives the wire schema of partial aggregation results
// for spec over input schema in.
func PartialSchema(spec GroupBy, in *columnar.Schema) *columnar.Schema {
	fields := make([]columnar.Field, 0, len(spec.GroupCols)+partialStateCols*len(spec.Aggs))
	for _, c := range spec.GroupCols {
		fields = append(fields, in.Fields[c])
	}
	for i := range spec.Aggs {
		fields = append(fields,
			columnar.Field{Name: fmt.Sprintf("a%d_cnt", i), Type: columnar.Int64},
			columnar.Field{Name: fmt.Sprintf("a%d_sumi", i), Type: columnar.Int64},
			columnar.Field{Name: fmt.Sprintf("a%d_sumf", i), Type: columnar.Float64},
			columnar.Field{Name: fmt.Sprintf("a%d_mini", i), Type: columnar.Int64},
			columnar.Field{Name: fmt.Sprintf("a%d_maxi", i), Type: columnar.Int64},
			columnar.Field{Name: fmt.Sprintf("a%d_minf", i), Type: columnar.Float64},
			columnar.Field{Name: fmt.Sprintf("a%d_maxf", i), Type: columnar.Float64},
		)
	}
	return &columnar.Schema{Fields: fields}
}

type partialGroup struct {
	key  string           // the encoded group key (appendGroupKey); Result sorts by it
	vals []columnar.Value // group column values, written once, when the group is made
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

	// groups[s] is the group in slot s, in creation order, and
	// states[s*len(Spec.Aggs)+ai] its aggregate ai.
	groups []partialGroup
	states []AggState

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
	p := &PartialAggregator{Spec: spec, In: in, MaxGroups: maxGroups}
	if n := len(spec.GroupCols); n > 0 {
		p.partialCols = make([]int, n)
		for i := range p.partialCols {
			p.partialCols[i] = i
		}
	}
	return p
}

// NumGroups reports the number of groups currently held.
func (p *PartialAggregator) NumGroups() int { return len(p.groups) }

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
	g := partialGroup{key: string(p.key), vals: make([]columnar.Value, len(cols))}
	for j, c := range cols {
		g.vals[j] = b.Col(c).Value(row)
	}
	p.groups = append(p.groups, g)
	p.states = append(p.states, make([]AggState, len(p.Spec.Aggs))...)
	if len(cols) > 0 {
		if p.keys == nil {
			p.keys = make(map[string]int32)
		}
		p.keys[g.key] = s
	}
	return s, true
}

// fold updates the states of rows from, from+1, ... in their slots, one
// aggregate at a time over its typed column; a slot of -1 is skipped.
func (p *PartialAggregator) fold(b *columnar.Batch, from int, slots []int32) {
	na := len(p.Spec.Aggs)
	for ai, spec := range p.Spec.Aggs {
		if spec.Func == Count {
			for _, s := range slots {
				if s >= 0 {
					p.states[int(s)*na+ai].UpdateCountOnly()
				}
			}
			continue
		}
		col := b.Col(spec.Col)
		switch col.Type() {
		case columnar.Int64:
			vals := col.Int64s()[from:]
			for k, s := range slots {
				if s >= 0 && !col.IsNull(from+k) {
					p.states[int(s)*na+ai].UpdateInt(vals[k])
				}
			}
		case columnar.Float64:
			vals := col.Float64s()[from:]
			for k, s := range slots {
				if s >= 0 && !col.IsNull(from+k) {
					p.states[int(s)*na+ai].UpdateFloat(vals[k])
				}
			}
		default:
			// Non-numeric aggregation input contributes to COUNT
			// semantics only.
			for k, s := range slots {
				if s >= 0 && !col.IsNull(from+k) {
					p.states[int(s)*na+ai].UpdateCountOnly()
				}
			}
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
			if s < 0 {
				continue
			}
			row := from + k
			st := AggState{
				Count: cnt[row], SumI: sumI[row], SumF: sumF[row],
				MinI: minI[row], MaxI: maxI[row], MinF: minF[row], MaxF: maxF[row],
				seen: cnt[row] > 0,
			}
			p.states[int(s)*na+ai].Merge(&st)
		}
	}
}

// Clone deep-copies the aggregator's accumulated state, for stage-level
// checkpointing: either side can keep folding rows without affecting the
// other. Group values are shared, as nothing writes them after a group
// is made.
func (p *PartialAggregator) Clone() *PartialAggregator {
	c := *p
	c.groups = slices.Clone(p.groups)
	c.states = slices.Clone(p.states)
	c.keys = maps.Clone(p.keys)
	c.key, c.remap, c.remapDict = nil, nil, nil
	return &c
}

// Flush emits all held groups as one partial batch (nil when empty) and
// clears the state.
func (p *PartialAggregator) Flush() *columnar.Batch {
	if len(p.groups) == 0 {
		return nil
	}
	na := len(p.Spec.Aggs)
	out := columnar.NewBatch(p.PartialSchema(), len(p.groups))
	row := make([]columnar.Value, 0, len(p.Spec.GroupCols)+partialStateCols*na)
	for s, g := range p.groups {
		row = append(row[:0], g.vals...)
		for _, st := range p.states[s*na : (s+1)*na] {
			row = append(row,
				columnar.IntValue(st.Count),
				columnar.IntValue(st.SumI),
				columnar.FloatValue(st.SumF),
				columnar.IntValue(st.MinI),
				columnar.IntValue(st.MaxI),
				columnar.FloatValue(st.MinF),
				columnar.FloatValue(st.MaxF),
			)
		}
		out.AppendRow(row...)
	}
	clear(p.groups)
	p.groups, p.states = p.groups[:0], p.states[:0]
	clear(p.keys)
	p.remapDict = nil
	return out
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

// NumGroups reports the number of result groups so far.
func (f *FinalAggregator) NumGroups() int { return f.partial.NumGroups() }

// Clone deep-copies the aggregator's accumulated state (see
// PartialAggregator.Clone).
func (f *FinalAggregator) Clone() *FinalAggregator {
	return &FinalAggregator{partial: f.partial.Clone(), in: f.in}
}

// Result materializes the final aggregate values, sorted by group key for
// deterministic output.
func (f *FinalAggregator) Result() *columnar.Batch {
	p := f.partial
	spec, na := p.Spec, len(p.Spec.Aggs)
	out := columnar.NewBatch(spec.OutputSchema(f.in), len(p.groups))
	order := make([]int, len(p.groups))
	for s := range order {
		order[s] = s
	}
	sort.Slice(order, func(i, j int) bool { return p.groups[order[i]].key < p.groups[order[j]].key })
	row := make([]columnar.Value, 0, len(spec.GroupCols)+na)
	for _, s := range order {
		row = append(row[:0], p.groups[s].vals...)
		for ai, a := range spec.Aggs {
			typ := columnar.Int64
			if a.Func != Count {
				typ = f.in.Fields[a.Col].Type
			}
			row = append(row, p.states[s*na+ai].Result(a.Func, typ))
		}
		out.AppendRow(row...)
	}
	return out
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
