package plan

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"repro/internal/expr"
	"repro/internal/fabric"
	"repro/internal/sim"
)

// Placement assigns one operator to one site of the path.
type Placement struct {
	Op      fabric.OpClass
	SiteIdx int
}

// Physical is one executable plan variant: operator placements along the
// path plus cost estimates. A query produces several variants; the
// scheduler (Section 7.3) picks among them at runtime.
type Physical struct {
	Query      *Query
	Variant    string
	Path       PathModel
	Placements []Placement

	// EncodedEval asks the storage processor to evaluate the pushed-down
	// filter directly on encoded columns and gather-decode only the
	// surviving rows (late materialization), instead of decoding every
	// segment before filtering. Only meaningful when the filter is placed
	// at the storage site; the runtime falls back per segment when a
	// predicate/codec pair has no kernel.
	EncodedEval bool

	// Estimates from the cost model.
	EstBytes sim.Bytes // total bytes crossing all path segments
	EstTime  sim.VTime // pipeline makespan estimate

	// Derived when the optimizer builds the variant; a hand-built one
	// derives its occupancy on every ask.
	devices []*fabric.Device
	links   []*fabric.Link
	rank    float64
}

// PlacementsAt returns the ops placed at site index i, in plan order.
func (p *Physical) PlacementsAt(i int) []fabric.OpClass {
	var ops []fabric.OpClass
	for _, pl := range p.Placements {
		if pl.SiteIdx == i {
			ops = append(ops, pl.Op)
		}
	}
	return ops
}

// Devices returns the distinct devices that host at least one placement,
// in path order: what the variant occupies, which admission checks for
// offline devices and scores against load and health. The slice is shared.
func (p *Physical) Devices() []*fabric.Device {
	if p.devices != nil {
		return p.devices
	}
	out := make([]*fabric.Device, 0, len(p.Path.Sites))
	for i, s := range p.Path.Sites {
		if slices.ContainsFunc(p.Placements, func(pl Placement) bool { return pl.SiteIdx == i }) &&
			!slices.Contains(out, s.Device) {
			out = append(out, s.Device)
		}
	}
	return out[:len(out):len(out)]
}

// Links returns the distinct links the variant's stream crosses, in
// path order. The slice is shared.
func (p *Physical) Links() []*fabric.Link {
	if p.links != nil {
		return p.links
	}
	return p.Path.links()
}

// links returns the distinct links of the path, in path order.
func (pm PathModel) links() []*fabric.Link {
	n := 0
	for _, s := range pm.Sites {
		n += len(s.ToNext)
	}
	out := make([]*fabric.Link, 0, n)
	for _, s := range pm.Sites {
		for _, l := range s.ToNext {
			if !slices.Contains(out, l) {
				out = append(out, l)
			}
		}
	}
	return out[:len(out):len(out)]
}

// PlacedDevices returns the names of Devices.
func (p *Physical) PlacedDevices() []string {
	var names []string
	for _, d := range p.Devices() {
		names = append(names, d.Name)
	}
	return names
}

// HasPlacement reports whether op is placed at site s.
func (p *Physical) HasPlacement(op fabric.OpClass, s Site) bool {
	idx := p.Path.SiteIndex(s)
	for _, pl := range p.Placements {
		if pl.Op == op && pl.SiteIdx == idx {
			return true
		}
	}
	return false
}

// Explain renders the plan with placements and estimates.
func (p *Physical) Explain() string {
	var b strings.Builder
	fmt.Fprintf(&b, "plan %q for %s\n", p.Variant, p.Query)
	for i, s := range p.Path.Sites {
		ops := p.PlacementsAt(i)
		names := make([]string, len(ops))
		for j, op := range ops {
			names[j] = op.String()
		}
		marker := "-"
		if len(names) > 0 {
			marker = strings.Join(names, ", ")
		}
		fmt.Fprintf(&b, "  %-12s %-14s %s\n", s.Site, s.Device.Name, marker)
	}
	fmt.Fprintf(&b, "  est: %s moved, %s\n", p.EstBytes, p.EstTime)
	return b.String()
}

// DefaultMoveWeight prices data movement when ranking plans. The rank
// key is time + weight * (bytes / first-segment bandwidth): moved bytes
// are costed as if they contended for the shared fabric, reflecting the
// paper's Section 1 requirement that movement be a first-class concern
// (the fabric is shared at the datacenter level even when one query's
// links look idle).
const DefaultMoveWeight = 2.0

// Optimizer enumerates and ranks plan variants for a path. No variant
// places an operator on an offline device (see usable): a device's
// offline flag is the one record that it failed.
type Optimizer struct {
	Path PathModel
}

// Enumerate produces the distinct placement variants for the query. The
// first site capable of an op hosts it in offload variants; incapable
// fabrics (dumb storage, dumb NICs) naturally degrade toward the CPU.
func (o *Optimizer) Enumerate(q *Query, stats TableStats) ([]*Physical, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	pm := o.Path
	cpuIdx := len(pm.Sites) - 1

	type variantSpec struct {
		name string
		// siteFor returns the chosen site for an op given the earliest
		// capable site, or cpuIdx to refuse offload.
		siteFor func(op fabric.OpClass) int
		// cascade places pre-aggregation at every capable site before
		// the CPU (the Section 4.4 staged group-by) instead of just the
		// chosen one.
		cascade bool
		// encoded evaluates the storage-site filter on encoded columns
		// with late materialization instead of decode-then-filter.
		encoded bool
	}
	earliestUsable := func(op fabric.OpClass, from int) int {
		for i := from; i < len(pm.Sites); i++ {
			if o.usable(i) && pm.Sites[i].Device.Can(op) {
				return i
			}
		}
		return -1
	}

	cpuOnly := func(fabric.OpClass) int { return cpuIdx }
	earliest := func(op fabric.OpClass) int {
		if i := earliestUsable(op, 0); i >= 0 {
			return i
		}
		return cpuIdx
	}
	storageOnly := func(op fabric.OpClass) int {
		if o.usable(0) && pm.Sites[0].Device.Can(op) {
			return 0
		}
		return cpuIdx
	}
	nicOnward := func(op fabric.OpClass) int {
		from := pm.SiteIndex(SiteComputeNIC)
		if from < 0 {
			from = cpuIdx
		}
		if i := earliestUsable(op, from); i >= 0 {
			return i
		}
		return cpuIdx
	}

	specs := [...]variantSpec{
		{"cpu-only", cpuOnly, false, false},
		{"storage-pushdown", storageOnly, false, false},
		{"storage-pushdown-encoded", storageOnly, false, true},
		{"full-offload", earliest, true, false},
		{"nic-offload", nicOnward, false, false},
	}

	f := o.facts(q, stats)
	out := make([]*Physical, 0, len(specs))
	for _, vs := range specs {
		ph := o.build(q, &f, vs.name, vs.siteFor, vs.cascade, vs.encoded)
		// The encoded variant places what the eager storage-pushdown one
		// does, but runs it another way: both stay in the ranking.
		if !slices.ContainsFunc(out, func(p *Physical) bool {
			return p.EncodedEval == ph.EncodedEval && slices.Equal(p.Placements, ph.Placements)
		}) {
			out = append(out, ph)
		}
	}
	slices.SortStableFunc(out, func(a, b *Physical) int { return cmp.Compare(a.rank, b.rank) })
	return out, nil
}

// usable reports whether site i may host operators: an offline device
// cannot, the CPU backstop (the last site) always can.
// Degraded placement falls out naturally — with every accelerator dead
// the only remaining variant is cpu-only.
func (o *Optimizer) usable(i int) bool {
	return i == len(o.Path.Sites)-1 || !o.Path.Sites[i].Device.IsOffline()
}

// costFacts is what costing a variant reads of the query, its statistics
// and the fabric, computed once per enumeration: every variant is costed
// from one reading of the links even while the scheduler re-limits them.
type costFacts struct {
	rows, sel, groups, encodedFraction float64
	// Row widths: touched columns, projected ones, filter ones, a partial.
	needBytes, outBytes, filterBytes, partialBytes float64
	links                                          []*fabric.Link
	segs                                           []segment // site i to i+1
}

type segment struct {
	bw  sim.Rate
	lat sim.VTime
}

func (o *Optimizer) facts(q *Query, stats TableStats) costFacts {
	pm := o.Path
	n := len(stats.ColBytes)
	f := costFacts{
		rows:            float64(stats.Rows),
		sel:             EstimateSelectivity(q.Filter, stats),
		groups:          float64(stats.GroupEstimate(q.GroupBy)),
		encodedFraction: stats.EncodedFraction,
		needBytes:       float64(stats.RowBytes(neededCols(q, n))),
		outBytes:        float64(stats.RowBytes(q.Projection)), // nil: every column
		partialBytes:    partialRowBytes(q.GroupBy, stats),
		links:           pm.links(),
		segs:            make([]segment, len(pm.Sites)),
	}
	if q.Filter != nil {
		f.filterBytes = float64(stats.RowBytes(expr.ColumnSet(n, q.Filter, nil, nil)))
	}
	for i := range pm.Sites {
		f.segs[i] = segment{pm.SegmentBandwidth(i), pm.SegmentLatency(i)}
	}
	return f
}

// build constructs one variant, costs it and derives what it occupies.
func (o *Optimizer) build(q *Query, f *costFacts, name string, siteFor func(fabric.OpClass) int, cascade, encoded bool) *Physical {
	pm := o.Path
	cpuIdx := len(pm.Sites) - 1
	// Room for a filter, a pre-aggregation at each site, a sort.
	ph := &Physical{Query: q, Variant: name, Path: pm, links: f.links, Placements: make([]Placement, 0, len(pm.Sites)+2)}
	add := func(op fabric.OpClass, site int) {
		ph.Placements = append(ph.Placements, Placement{Op: op, SiteIdx: site})
	}

	if q.Filter != nil {
		site := siteFor(fabric.OpFilter)
		add(fabric.OpFilter, site)
		// Encoded evaluation only exists where the filter actually runs
		// at the storage site; anywhere else the variant collapses into
		// its eager twin and dedup drops it.
		ph.EncodedEval = encoded && site == 0 && cpuIdx != 0
	}
	switch {
	case q.CountOnly:
		add(fabric.OpCount, siteFor(fabric.OpCount))
	case q.GroupBy != nil:
		// Pre-aggregate where the variant allows, then final-aggregate
		// at the CPU. Cascading variants stage the group-by at every
		// capable site before the CPU (the Section 4.4 pipeline of
		// group-by stages).
		first := siteFor(fabric.OpPreAgg)
		if first < cpuIdx {
			if cascade {
				for i := first; i < cpuIdx; i++ {
					if o.usable(i) && pm.Sites[i].Device.Can(fabric.OpPreAgg) {
						add(fabric.OpPreAgg, i)
					}
				}
			} else {
				add(fabric.OpPreAgg, first)
			}
		}
		add(fabric.OpAggregate, cpuIdx)
	case q.Projection != nil:
		add(fabric.OpProject, siteFor(fabric.OpProject))
	}
	if q.OrderBy >= 0 {
		add(fabric.OpSort, cpuIdx)
	}
	o.estimate(ph, f)
	ph.devices = ph.Devices()
	// The rank key is time + weight * (bytes / first-segment bandwidth).
	base := f.segs[0].bw
	if base <= 0 {
		base = sim.GBPerSec
	}
	ph.rank = ph.EstTime.Seconds() + DefaultMoveWeight*float64(ph.EstBytes)/float64(base)
	return ph
}

// estimate walks the path applying each placed op's data reduction and
// accumulating device and segment costs. The makespan estimate is the
// pipeline bottleneck (max over devices and segments) plus one latency
// per hop.
func (o *Optimizer) estimate(ph *Physical, f *costFacts) {
	pm := o.Path

	rows, rowBytes, sel, groups := f.rows, f.needBytes, f.sel, f.groups

	var bottleneck sim.VTime
	var latency sim.VTime
	var moved sim.Bytes

	if ph.EncodedEval {
		// Late materialization: the filter streams only the encoded
		// filter columns, and the decode is a gather over survivors —
		// the decode-savings term that makes this variant win at low
		// selectivity and lose nothing at high selectivity.
		filterBytes := sim.Bytes(rows * f.filterBytes * f.encodedFraction)
		if r := pm.Sites[0].Device.RateFor(fabric.OpFilter); r > 0 {
			if t := r.TimeFor(filterBytes); t > bottleneck {
				bottleneck = t
			}
		}
		gatherBytes := sim.Bytes(rows * sel * rowBytes * f.encodedFraction)
		if dec := pm.Sites[0].Device.RateFor(fabric.OpDecompress); dec > 0 {
			if t := dec.TimeFor(gatherBytes); t > bottleneck {
				bottleneck = t
			}
		}
	} else {
		// Eager decode at site 0 over the full encoded bytes.
		encBytes := sim.Bytes(rows * rowBytes * f.encodedFraction)
		if dec := pm.Sites[0].Device.RateFor(fabric.OpDecompress); dec > 0 {
			if t := dec.TimeFor(encBytes); t > bottleneck {
				bottleneck = t
			}
		}
	}

	for i, site := range pm.Sites {
		inBytes := sim.Bytes(rows * rowBytes)
		for _, pl := range ph.Placements {
			if pl.SiteIdx != i {
				continue
			}
			op := pl.Op
			if ph.EncodedEval && i == 0 && op == fabric.OpFilter {
				// Already charged above over encoded filter-column bytes.
				rows *= sel
				inBytes = sim.Bytes(rows * rowBytes)
				continue
			}
			if t := site.Device.RateFor(op).TimeFor(inBytes); t > bottleneck {
				bottleneck = t
			}
			switch op {
			case fabric.OpFilter:
				rows *= sel
			case fabric.OpProject:
				rowBytes = f.outBytes
			case fabric.OpPreAgg:
				// Bounded state: output is at most the group count
				// (plus spills; ignore second-order effects). Partial
				// rows carry full aggregate state and are wider than
				// raw rows, so pre-aggregation can lose when group
				// cardinality approaches row count — a crossover the
				// ranking must see.
				if rows > groups {
					rows = groups
				}
				rowBytes = f.partialBytes
			case fabric.OpAggregate:
				rows = groups
				rowBytes = f.partialBytes
			case fabric.OpCount:
				rows = 1
				rowBytes = 8
			}
			inBytes = sim.Bytes(rows * rowBytes)
		}
		if i == len(pm.Sites)-1 {
			break
		}
		segBytes := sim.Bytes(rows * rowBytes)
		moved += segBytes
		if bw := f.segs[i].bw; bw > 0 {
			if t := bw.TimeFor(segBytes); t > bottleneck {
				bottleneck = t
			}
		}
		latency += f.segs[i].lat
	}

	ph.EstBytes = moved
	ph.EstTime = bottleneck + latency
}

// partialRowBytes estimates the width of one partial-aggregation row.
func partialRowBytes(g *expr.GroupBy, stats TableStats) float64 {
	if g == nil {
		return 8
	}
	var n int64
	for _, c := range g.GroupCols {
		if c < len(stats.ColBytes) {
			n += stats.ColBytes[c]
		}
	}
	n += int64(len(g.Aggs)) * 56 // seven 8-byte state fields
	return float64(n)
}

// neededCols is the set of columns a query touches, clipped to the
// table's column count.
func neededCols(q *Query, numCols int) []int {
	switch {
	case q.CountOnly && q.Filter == nil:
		// COUNT(*) touches no column; one narrow column still ships.
		return expr.ColumnSet(numCols, nil, nil, []int{0})
	case q.CountOnly:
		return expr.ColumnSet(numCols, q.Filter, nil, nil)
	case q.GroupBy != nil:
		return expr.ColumnSet(numCols, q.Filter, q.GroupBy, nil)
	}
	return expr.ColumnSet(numCols, q.Filter, nil, outputCols(q, numCols))
}

// outputCols is what survives projection (or the full set).
func outputCols(q *Query, numCols int) []int {
	if q.Projection != nil {
		return q.Projection
	}
	out := make([]int, numCols)
	for i := range out {
		out[i] = i
	}
	return out
}
