package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the harness around
// the call (nothing inside the program is instrumented). Spans of one
// traced op share OpID; Parent is the ID of the enclosing span, -1 for
// the op's root. Times are nanoseconds since the traced pass started.
type span struct {
	OpID    int    `json:"op_id"`
	ID      int    `json:"id"`
	Name    string `json:"name"`
	Layer   string `json:"layer"`
	Parent  int    `json:"parent"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	SelfNs  int64  `json:"self_ns"`
	Rows    int64  `json:"rows"`
	Bytes   int64  `json:"bytes"`
}

// tracer keeps spans in memory; nothing is written until the pass ends.
type tracer struct {
	t0    time.Time
	opID  int
	spans []span
	// overheadNs is what an empty begin/end pair itself takes; it is
	// subtracted from every duration a metric is derived from, because
	// some wrapped calls (an object-store lookup) are shorter than it.
	overheadNs int64
}

func newTracer() *tracer {
	t := &tracer{t0: time.Now(), spans: make([]span, 0, 1<<14)}
	const probes = 2001
	ds := make([]float64, probes)
	for i := range ds {
		id := t.begin("probe", "harness", -1)
		t.end(id, 0, 0)
		ds[i] = float64(t.spans[id].EndNs - t.spans[id].StartNs)
	}
	t.overheadNs = int64(median(ds))
	t.spans = t.spans[:0]
	return t
}

func (t *tracer) begin(name, layer string, parent int) int {
	id := len(t.spans)
	t.spans = append(t.spans, span{OpID: t.opID, ID: id, Name: name, Layer: layer, Parent: parent})
	t.spans[id].StartNs = int64(time.Since(t.t0))
	return id
}

func (t *tracer) end(id int, rows, bytes int64) {
	end := int64(time.Since(t.t0))
	s := &t.spans[id]
	s.EndNs, s.Rows, s.Bytes = end, rows, bytes
}

// ns is a span's duration net of the tracer's own overhead.
func (t *tracer) ns(id int) float64 {
	d := t.spans[id].EndNs - t.spans[id].StartNs - t.overheadNs
	if d < 0 {
		d = 0
	}
	return float64(d)
}

// Every time a metric is derived from is the quietQuantile of its
// samples, like the end-to-end latency: with a handful of samples that
// is the fastest one, the one interference touched least.

// samples collects, for every span called name that carried rows, its
// net duration in ns and that duration per row.
func (t *tracer) samples(name string) (ns, nsPerRow []float64) {
	for i := range t.spans {
		if s := &t.spans[i]; s.Name == name && s.Rows > 0 {
			ns = append(ns, t.ns(i))
			nsPerRow = append(nsPerRow, t.ns(i)/float64(s.Rows))
		}
	}
	return ns, nsPerRow
}

// perCall is the time of one call of name, in ns.
func (t *tracer) perCall(name string) float64 {
	ns, _ := t.samples(name)
	return quantile(ns, quietQuantile)
}

// perRow is the time name spends per row it carried, in ns.
func (t *tracer) perRow(name string) float64 {
	_, nsPerRow := t.samples(name)
	return quantile(nsPerRow, quietQuantile)
}

// mean is the mean time of one call of name, in ns.
func (t *tracer) mean(name string) float64 {
	ns, _ := t.samples(name)
	return mean(ns)
}

// perOp is the time all calls of name take within one traced op, in ns.
func (t *tracer) perOp(name string) float64 {
	sums := map[int]float64{}
	for i := range t.spans {
		if s := &t.spans[i]; s.Name == name && s.OpID >= 0 {
			sums[s.OpID] += t.ns(i)
		}
	}
	vals := make([]float64, 0, len(sums))
	for _, v := range sums {
		vals = append(vals, v)
	}
	return quantile(vals, quietQuantile)
}

// fillSelf sets every span's self time: its duration minus the part its
// children cover. The harness is single-threaded, so children of one
// parent never overlap and their durations simply add.
func (t *tracer) fillSelf() {
	for i := range t.spans {
		t.spans[i].SelfNs = t.spans[i].EndNs - t.spans[i].StartNs
	}
	for i := range t.spans {
		if p := t.spans[i].Parent; p >= 0 {
			t.spans[p].SelfNs -= t.spans[i].EndNs - t.spans[i].StartNs
		}
	}
}

// selfByLayer is each layer's self time per traced op, in ms, for the
// summary printed under the per-layer metrics.
func (t *tracer) selfByLayer(ops int) (layers []string, selfMs map[string]float64) {
	selfMs = map[string]float64{}
	for i := range t.spans {
		if s := &t.spans[i]; s.OpID >= 0 {
			selfMs[s.Layer] += float64(s.SelfNs) / 1e6 / float64(ops)
		}
	}
	for l := range selfMs {
		layers = append(layers, l)
	}
	sort.Strings(layers)
	return layers, selfMs
}

type traceFile struct {
	Workload       string `json:"workload"`
	Seed           uint64 `json:"seed"`
	SpanOverheadNs int64  `json:"span_overhead_ns"`
	Spans          []span `json:"spans"`
}

func (t *tracer) write(path, workload string, seed uint64) error {
	data, err := json.Marshal(traceFile{Workload: workload, Seed: seed, SpanOverheadNs: t.overheadNs, Spans: t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
