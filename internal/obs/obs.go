// Package obs is the observability layer: a lock-cheap virtual-time
// trace recorder for query executions. Every span lives on a track (one
// device or link of the fabric) and carries virtual-nanosecond start/end
// timestamps, so a trace is a per-device Gantt chart of where busy time
// landed — the behavioural shape the paper's figures argue about, not
// just the end-of-query aggregates in ExecStats.
//
// Design rules:
//
//   - Nil is off. Every method is safe on a nil *Trace and does nothing,
//     so instrumented code needs no flag checks and pays nothing (zero
//     allocations, guarded by benchmarks in flow) when tracing is
//     disabled.
//   - Virtual time only. Timestamps derive from the same calibrated
//     device and link rates the meters charge, never from the host
//     clock, so a fixed-seed run produces a byte-identical trace on any
//     machine — CI diffs traces to prove it.
//   - Tracks serialize. Two spans on the same track never overlap; a
//     device is one resource. (Link tracks are the one exception: a link
//     is a pipelined conduit whose DMA transfers may overlap in flight.)
//     Overlap across tracks is the signal: the concurrency factor is
//     busy-sum divided by makespan over all spans — the mean number of
//     simultaneously active resources, transfer engines included.
//   - Recording is goroutine-safe, replay order is not. AddSpan,
//     AddEvent and Sample serialize on an internal mutex, so concurrent
//     stages may record freely; but append order then depends on the
//     host scheduler, which would break CI's byte-identical trace diff.
//     That is why the engines force Workers to 1 whenever Tracing is on:
//     a traced run is a serial run by contract, and the worker pools
//     must never write spans from more than one goroutine per track.
package obs

import (
	"sort"
	"sync"

	"repro/internal/sim"
)

// SpanKind classifies what a span's busy time was spent on.
type SpanKind uint8

// Span kinds.
const (
	// SpanStage is operator work hosted on a device (a pipeline stage,
	// a Volcano iterator, a pushed-down operator).
	SpanStage SpanKind = iota
	// SpanScan is storage-side media and decode work feeding a query.
	SpanScan
	// SpanTransfer is payload crossing one fabric link.
	SpanTransfer
	// SpanSetup is a kernel installation / register programming step.
	SpanSetup
)

// String names the kind (also the Perfetto category).
func (k SpanKind) String() string {
	switch k {
	case SpanStage:
		return "stage"
	case SpanScan:
		return "scan"
	case SpanTransfer:
		return "transfer"
	case SpanSetup:
		return "setup"
	}
	return "span"
}

// Span is one interval of busy time on one track.
type Span struct {
	Name  string    `json:"name"`
	Track string    `json:"track"`
	Kind  SpanKind  `json:"kind"`
	Start sim.VTime `json:"start"`
	End   sim.VTime `json:"end"`
	Seq   int64     `json:"seq"`   // batch/segment sequence, -1 when n/a
	Bytes sim.Bytes `json:"bytes"` // payload the span touched
}

// Duration reports the span's busy time.
func (s Span) Duration() sim.VTime { return s.End - s.Start }

// Event is an instantaneous annotation: a fault, a retry, a credit
// stall, a failover, a placement decision.
type Event struct {
	Name   string    `json:"name"`
	Track  string    `json:"track"`
	At     sim.VTime `json:"at"`
	Detail string    `json:"detail,omitempty"`
}

// Point is one sample of a metric series.
type Point struct {
	At    sim.VTime `json:"at"`
	Value float64   `json:"value"`
}

// Series is a named metric sampled over the query lifecycle (e.g. one
// meter's cumulative bytes, a port's arrived payload).
type Series struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Points []Point `json:"points"`
}

// Trace is the recorder. The zero value is unusable; use New. A nil
// *Trace is the disabled recorder: every method no-ops.
type Trace struct {
	mu     sync.Mutex
	spans  []Span
	events []Event
	series map[string]*Series
}

// New returns an empty, enabled trace.
func New() *Trace {
	return &Trace{series: make(map[string]*Series)}
}

// Enabled reports whether the recorder collects anything.
func (t *Trace) Enabled() bool { return t != nil }

// AddSpan records one span.
func (t *Trace) AddSpan(s Span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// AddEvent records one instantaneous event.
func (t *Trace) AddEvent(e Event) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.events = append(t.events, e)
	t.mu.Unlock()
}

// Sample appends one point to the named series, creating it on first
// use. Points are kept in append order; callers sample monotonically.
func (t *Trace) Sample(name, unit string, at sim.VTime, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	s, ok := t.series[name]
	if !ok {
		s = &Series{Name: name, Unit: unit}
		t.series[name] = s
	}
	s.Points = append(s.Points, Point{At: at, Value: v})
	t.mu.Unlock()
}

// ClearSpans drops all spans and series but keeps events. The engine
// uses it when a recovery resumes at epoch 0: the final answer's
// timeline replaces the abandoned run's, while fault and recovery
// annotations accumulate across the whole query.
func (t *Trace) ClearSpans() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = t.spans[:0]
	t.series = make(map[string]*Series)
	t.mu.Unlock()
}

// Spans returns a copy of the recorded spans in deterministic order
// (start, track, name, seq).
func (t *Trace) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := make([]Span, len(t.spans))
	copy(out, t.spans)
	t.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		if a.Track != b.Track {
			return a.Track < b.Track
		}
		if a.Name != b.Name {
			return a.Name < b.Name
		}
		return a.Seq < b.Seq
	})
	return out
}

// Events returns a copy of the recorded events in deterministic order
// (at, track, name).
func (t *Trace) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := make([]Event, len(t.events))
	copy(out, t.events)
	t.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.At != b.At {
			return a.At < b.At
		}
		if a.Track != b.Track {
			return a.Track < b.Track
		}
		return a.Name < b.Name
	})
	return out
}

// SeriesList returns a copy of the metric series sorted by name.
func (t *Trace) SeriesList() []Series {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := make([]Series, 0, len(t.series))
	for _, s := range t.series {
		cp := Series{Name: s.Name, Unit: s.Unit, Points: make([]Point, len(s.Points))}
		copy(cp.Points, s.Points)
		out = append(out, cp)
	}
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Tracks returns the distinct track names across spans, sorted.
func (t *Trace) Tracks() []string {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	seen := make(map[string]bool)
	for _, s := range t.spans {
		seen[s.Track] = true
	}
	t.mu.Unlock()
	out := make([]string, 0, len(seen))
	for n := range seen {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Makespan reports the latest span end (the query's virtual runtime on
// the traced timeline). Zero with no spans.
func (t *Trace) Makespan() sim.VTime {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var end sim.VTime
	for _, s := range t.spans {
		if s.End > end {
			end = s.End
		}
	}
	return end
}

// WorkBusy sums the durations of every span — device work and link
// transfers alike: the total resource busy time the timeline accounts
// for. A DMA engine moving payload is doing work the same way a
// processor filtering it is; the paper's data-flow argument is exactly
// that all of them should be busy at once.
func (t *Trace) WorkBusy() sim.VTime {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var sum sim.VTime
	for _, s := range t.spans {
		sum += s.End - s.Start
	}
	return sum
}

// ConcurrencyFactor is the staged-pipeline overlap measure: the summed
// duration of all spans divided by their makespan (first start to last
// end) — the mean number of simultaneously active resources, links
// included. A serial engine that uses one resource at a time scores at
// most 1.0; a pipeline whose stages and transfers run concurrently
// scores the mean count of overlapping resources. Returns 0 with no
// spans.
func (t *Trace) ConcurrencyFactor() float64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var sum sim.VTime
	first := sim.VTime(-1)
	var last sim.VTime
	for _, s := range t.spans {
		sum += s.End - s.Start
		if first < 0 || s.Start < first {
			first = s.Start
		}
		if s.End > last {
			last = s.End
		}
	}
	if first < 0 || last <= first {
		return 0
	}
	return float64(sum) / float64(last-first)
}

// Utilization reports each track's busy fraction of the overall
// makespan, sorted by track via the returned slice.
type TrackUtil struct {
	Track string
	Busy  sim.VTime
	Util  float64
}

// Utilizations computes per-track busy time over the trace makespan.
func (t *Trace) Utilizations() []TrackUtil {
	if t == nil {
		return nil
	}
	span := t.Makespan()
	t.mu.Lock()
	busy := make(map[string]sim.VTime)
	for _, s := range t.spans {
		busy[s.Track] += s.End - s.Start
	}
	t.mu.Unlock()
	out := make([]TrackUtil, 0, len(busy))
	for track, b := range busy {
		u := TrackUtil{Track: track, Busy: b}
		if span > 0 {
			u.Util = float64(b) / float64(span)
		}
		out = append(out, u)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Track < out[j].Track })
	return out
}

// VClock is a single-writer virtual clock: the storage scan advances it
// as it charges media and processor work, and the flow source stamps
// each emitted batch with its reading, putting the scan and the
// downstream pipeline on one timeline. Nil is a frozen clock at 0.
type VClock struct {
	now sim.VTime
}

// NewVClock returns a clock at virtual time 0.
func NewVClock() *VClock { return &VClock{} }

// Now reads the clock. Safe on nil (always 0).
func (c *VClock) Now() sim.VTime {
	if c == nil {
		return 0
	}
	return c.now
}

// Advance moves the clock forward by dt and returns the new reading.
// Safe on nil (no-op).
func (c *VClock) Advance(dt sim.VTime) sim.VTime {
	if c == nil {
		return 0
	}
	c.now += dt
	return c.now
}
