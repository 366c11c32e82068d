package expr

import (
	"encoding/binary"
	"fmt"
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
	key    string
	vals   []columnar.Value // group column values
	states []AggState       // one per AggSpec
}

// PartialAggregator folds raw rows and/or upstream partials into bounded
// group state. When the number of groups would exceed MaxGroups, the
// accumulated partials are flushed downstream and the state is cleared —
// the "mostly stateless" discipline Section 3.3 demands of in-path
// operators.
type PartialAggregator struct {
	Spec      GroupBy
	In        *columnar.Schema
	MaxGroups int // 0 = unbounded

	groups map[string]*partialGroup
	order  []*partialGroup

	// Scratch for the row being looked up, reused so that only a new
	// group allocates.
	vals []columnar.Value
	key  []byte
}

// NewPartialAggregator builds a partial aggregator for spec over batches
// with schema in. Spec column indices refer to positions in in.
func NewPartialAggregator(spec GroupBy, in *columnar.Schema, maxGroups int) *PartialAggregator {
	return &PartialAggregator{
		Spec:      spec,
		In:        in,
		MaxGroups: maxGroups,
		groups:    make(map[string]*partialGroup),
	}
}

// NumGroups reports the number of groups currently held.
func (p *PartialAggregator) NumGroups() int { return len(p.groups) }

// PartialSchema returns the schema of the batches this aggregator emits.
func (p *PartialAggregator) PartialSchema() *columnar.Schema {
	return PartialSchema(p.Spec, p.In)
}

// AddRaw folds a batch of raw input rows, returning any partial batches
// flushed due to the group budget.
func (p *PartialAggregator) AddRaw(b *columnar.Batch) []*columnar.Batch {
	var flushed []*columnar.Batch
	for row := 0; row < b.NumRows(); row++ {
		g, spill := p.group(b, row)
		if spill != nil {
			flushed = append(flushed, spill)
			g, _ = p.group(b, row)
		}
		for ai, spec := range p.Spec.Aggs {
			st := &g.states[ai]
			if spec.Func == Count {
				st.UpdateCountOnly()
				continue
			}
			col := b.Col(spec.Col)
			if col.IsNull(row) {
				continue
			}
			switch col.Type() {
			case columnar.Int64:
				st.UpdateInt(col.Int64s()[row])
			case columnar.Float64:
				st.UpdateFloat(col.Float64s()[row])
			default:
				// Non-numeric aggregation input contributes to COUNT
				// semantics only.
				st.UpdateCountOnly()
			}
		}
	}
	return flushed
}

// AddPartial folds a batch of upstream partials (schema PartialSchema),
// returning any flushes. This is what lets stages chain.
func (p *PartialAggregator) AddPartial(b *columnar.Batch) []*columnar.Batch {
	ng := len(p.Spec.GroupCols)
	var flushed []*columnar.Batch
	for row := 0; row < b.NumRows(); row++ {
		g, spill := p.groupFromPartial(b, row)
		if spill != nil {
			flushed = append(flushed, spill)
			g, _ = p.groupFromPartial(b, row)
		}
		for ai := range p.Spec.Aggs {
			base := ng + ai*partialStateCols
			st := AggState{
				Count: b.Col(base).Int64s()[row],
				SumI:  b.Col(base + 1).Int64s()[row],
				SumF:  b.Col(base + 2).Float64s()[row],
				MinI:  b.Col(base + 3).Int64s()[row],
				MaxI:  b.Col(base + 4).Int64s()[row],
				MinF:  b.Col(base + 5).Float64s()[row],
				MaxF:  b.Col(base + 6).Float64s()[row],
			}
			st.seen = st.Count > 0
			g.states[ai].Merge(&st)
		}
	}
	return flushed
}

// group finds or creates the group for raw row, flushing first if the
// budget is exhausted. The returned spill batch, if non-nil, must be
// emitted downstream before retrying.
func (p *PartialAggregator) group(b *columnar.Batch, row int) (*partialGroup, *columnar.Batch) {
	p.vals = p.vals[:0]
	for _, c := range p.Spec.GroupCols {
		p.vals = append(p.vals, b.Col(c).Value(row))
	}
	return p.findGroup()
}

func (p *PartialAggregator) groupFromPartial(b *columnar.Batch, row int) (*partialGroup, *columnar.Batch) {
	p.vals = p.vals[:0]
	for i := range p.Spec.GroupCols {
		p.vals = append(p.vals, b.Col(i).Value(row))
	}
	return p.findGroup()
}

// findGroup looks up the group of the values in p.vals.
func (p *PartialAggregator) findGroup() (*partialGroup, *columnar.Batch) {
	p.key = appendGroupKey(p.key[:0], p.vals)
	if g, ok := p.groups[string(p.key)]; ok { // the conversion does not allocate
		return g, nil
	}
	if p.MaxGroups > 0 && len(p.groups) >= p.MaxGroups {
		return nil, p.Flush()
	}
	g := &partialGroup{key: string(p.key), vals: slices.Clone(p.vals), states: make([]AggState, len(p.Spec.Aggs))}
	p.groups[g.key] = g
	p.order = append(p.order, g)
	return g, nil
}

// Clone deep-copies the aggregator's accumulated state, for stage-level
// checkpointing: the copy shares no group records with the original, so
// either side can keep folding rows without affecting the other.
func (p *PartialAggregator) Clone() *PartialAggregator {
	c := &PartialAggregator{
		Spec:      p.Spec,
		In:        p.In,
		MaxGroups: p.MaxGroups,
		groups:    make(map[string]*partialGroup, len(p.groups)),
		order:     make([]*partialGroup, 0, len(p.order)),
	}
	for _, g := range p.order {
		ng := &partialGroup{
			key:    g.key,
			vals:   append([]columnar.Value(nil), g.vals...),
			states: append([]AggState(nil), g.states...),
		}
		c.groups[ng.key] = ng
		c.order = append(c.order, ng)
	}
	return c
}

// Flush emits all held groups as one partial batch (nil when empty) and
// clears the state.
func (p *PartialAggregator) Flush() *columnar.Batch {
	if len(p.groups) == 0 {
		return nil
	}
	out := columnar.NewBatch(p.PartialSchema(), len(p.order))
	for _, g := range p.order {
		row := make([]columnar.Value, 0, len(g.vals)+partialStateCols*len(g.states))
		row = append(row, g.vals...)
		for i := range g.states {
			st := &g.states[i]
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
	p.groups = make(map[string]*partialGroup)
	p.order = nil
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

// AddRaw folds raw input rows.
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
	spec := f.partial.Spec
	out := columnar.NewBatch(spec.OutputSchema(f.in), len(f.partial.order))
	groups := append([]*partialGroup(nil), f.partial.order...)
	sort.Slice(groups, func(i, j int) bool { return groups[i].key < groups[j].key })
	for _, g := range groups {
		row := make([]columnar.Value, 0, len(g.vals)+len(spec.Aggs))
		row = append(row, g.vals...)
		for ai, a := range spec.Aggs {
			typ := columnar.Int64
			if a.Func != Count {
				typ = f.in.Fields[a.Col].Type
			}
			row = append(row, g.states[ai].Result(a.Func, typ))
		}
		out.AppendRow(row...)
	}
	return out
}

// appendGroupKey appends a collision-free byte key of the group values
// to buf.
func appendGroupKey(buf []byte, vals []columnar.Value) []byte {
	for _, v := range vals {
		buf = append(buf, byte(v.Type))
		if v.Null {
			buf = append(buf, 0)
			continue
		}
		buf = append(buf, 1)
		switch v.Type {
		case columnar.Int64:
			buf = binary.LittleEndian.AppendUint64(buf, uint64(v.I))
		case columnar.Float64:
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v.F))
		case columnar.String:
			buf = binary.LittleEndian.AppendUint32(buf, uint32(len(v.S)))
			buf = append(buf, v.S...)
		case columnar.Bool:
			if v.B {
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
