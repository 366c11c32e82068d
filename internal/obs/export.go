package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/sim"
)

// Process pairs a trace with a display name for multi-engine exports
// (e.g. the dataflow and Volcano runs of the same query side by side).
type Process struct {
	Name  string
	Trace *Trace
}

// perfettoEvent is one entry of the Chrome/Perfetto trace_event array.
// Field order and omitempty rules are fixed so exports are byte-stable.
type perfettoEvent struct {
	Name  string        `json:"name"`
	Cat   string        `json:"cat,omitempty"`
	Phase string        `json:"ph"`
	TS    float64       `json:"ts"`
	Dur   *float64      `json:"dur,omitempty"`
	PID   int           `json:"pid"`
	TID   int           `json:"tid"`
	Scope string        `json:"s,omitempty"`
	Args  *perfettoArgs `json:"args,omitempty"`
}

type perfettoArgs struct {
	Name   string `json:"name,omitempty"`
	Bytes  int64  `json:"bytes,omitempty"`
	Seq    *int64 `json:"seq,omitempty"`
	Detail string `json:"detail,omitempty"`
}

// usec converts virtual nanoseconds to the microsecond floats the
// trace_event format expects.
func usec(v sim.VTime) float64 { return float64(v) / 1e3 }

// WritePerfetto emits a Chrome/Perfetto trace_event JSON document. Each
// Process becomes a Perfetto process; each track (device or link)
// becomes a named thread within it; spans become complete ("X") events
// and trace events become instants ("i"). Output is deterministic for a
// deterministic trace: spans, events, and track ids are emitted in
// sorted order.
func WritePerfetto(w io.Writer, procs ...Process) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n"); err != nil {
		return err
	}
	enc := func(ev perfettoEvent, first bool) error {
		b, err := json.Marshal(ev)
		if err != nil {
			return err
		}
		if !first {
			if _, err := bw.WriteString(",\n"); err != nil {
				return err
			}
		}
		_, err = bw.Write(b)
		return err
	}
	first := true
	for pi, p := range procs {
		pid := pi + 1
		if err := enc(perfettoEvent{Name: "process_name", Phase: "M", PID: pid,
			Args: &perfettoArgs{Name: p.Name}}, first); err != nil {
			return err
		}
		first = false
		// Stable track → tid mapping from the sorted track list, plus a
		// catch-all tid for events on tracks that carry no spans.
		tids := make(map[string]int)
		for _, trk := range p.Trace.Tracks() {
			tids[trk] = len(tids) + 1
			if err := enc(perfettoEvent{Name: "thread_name", Phase: "M", PID: pid,
				TID: tids[trk], Args: &perfettoArgs{Name: trk}}, false); err != nil {
				return err
			}
		}
		for _, e := range p.Trace.Events() {
			if _, ok := tids[e.Track]; !ok {
				tids[e.Track] = len(tids) + 1
				if err := enc(perfettoEvent{Name: "thread_name", Phase: "M", PID: pid,
					TID: tids[e.Track], Args: &perfettoArgs{Name: e.Track}}, false); err != nil {
					return err
				}
			}
		}
		for _, s := range p.Trace.Spans() {
			dur := usec(s.Duration())
			args := &perfettoArgs{Bytes: int64(s.Bytes)}
			if s.Seq >= 0 {
				seq := s.Seq
				args.Seq = &seq
			}
			if err := enc(perfettoEvent{Name: s.Name, Cat: s.Kind.String(), Phase: "X",
				TS: usec(s.Start), Dur: &dur, PID: pid, TID: tids[s.Track], Args: args}, false); err != nil {
				return err
			}
		}
		for _, e := range p.Trace.Events() {
			args := &perfettoArgs{}
			if e.Detail != "" {
				args.Detail = e.Detail
			}
			if err := enc(perfettoEvent{Name: e.Name, Cat: "event", Phase: "i",
				TS: usec(e.At), PID: pid, TID: tids[e.Track], Scope: "t", Args: args}, false); err != nil {
				return err
			}
		}
	}
	if _, err := bw.WriteString("\n]}\n"); err != nil {
		return err
	}
	return bw.Flush()
}

// traceJSON is the machine-readable stats document for one trace.
type traceJSON struct {
	Makespan     sim.VTime  `json:"makespan_vns"`
	WorkBusy     sim.VTime  `json:"work_busy_vns"`
	Concurrency  float64    `json:"concurrency_factor"`
	Utilizations []utilJSON `json:"utilizations"`
	Spans        []Span     `json:"spans"`
	Events       []Event    `json:"events"`
	Series       []Series   `json:"series"`
}

type utilJSON struct {
	Track string    `json:"track"`
	Busy  sim.VTime `json:"busy_vns"`
	Util  float64   `json:"util"`
}

// WriteJSON emits the full trace — summary, spans, events, series — as
// one deterministic JSON document.
func (t *Trace) WriteJSON(w io.Writer) error {
	doc := traceJSON{
		Makespan:    t.Makespan(),
		WorkBusy:    t.WorkBusy(),
		Concurrency: t.ConcurrencyFactor(),
		Spans:       t.Spans(),
		Events:      t.Events(),
		Series:      t.SeriesList(),
	}
	if doc.Spans == nil {
		doc.Spans = []Span{}
	}
	if doc.Events == nil {
		doc.Events = []Event{}
	}
	if doc.Series == nil {
		doc.Series = []Series{}
	}
	for _, u := range t.Utilizations() {
		doc.Utilizations = append(doc.Utilizations, utilJSON{Track: u.Track, Busy: u.Busy, Util: u.Util})
	}
	if doc.Utilizations == nil {
		doc.Utilizations = []utilJSON{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// WriteTimeline renders what EXPLAIN ANALYZE prints: the Gantt chart and
// the headline concurrency numbers. A nil trace (tracing was off) writes
// nothing.
func (t *Trace) WriteTimeline(w io.Writer, width int) error {
	if t == nil {
		return nil
	}
	if err := t.WriteGantt(w, width); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "makespan %s, resource busy %s, concurrency %.2f (mean active resources)\n",
		t.Makespan(), t.WorkBusy(), t.ConcurrencyFactor())
	return err
}

// WriteGantt renders the trace as a fixed-width per-track text timeline:
// one row per track, '#' cells where the track was busy, '.' where idle,
// with busy time and utilization on the right. The row set and cell
// pattern are deterministic, so the renderer doubles as a quick visual
// diff in terminals and test logs.
func (t *Trace) WriteGantt(w io.Writer, width int) error {
	if width < 10 {
		width = 10
	}
	span := t.Makespan()
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "timeline 0 .. %v (each cell %v)\n", span, span/sim.VTime(width))
	nameW := 0
	tracks := t.Tracks()
	for _, trk := range tracks {
		if len(trk) > nameW {
			nameW = len(trk)
		}
	}
	spans := t.Spans()
	utils := t.Utilizations()
	for _, trk := range tracks {
		cells := make([]byte, width)
		for i := range cells {
			cells[i] = '.'
		}
		for _, s := range spans {
			if s.Track != trk || span == 0 {
				continue
			}
			lo := int(int64(s.Start) * int64(width) / int64(span))
			hi := int(int64(s.End) * int64(width) / int64(span))
			if hi == lo {
				hi = lo + 1 // at least one cell per span
			}
			for i := lo; i < hi && i < width; i++ {
				cells[i] = '#'
			}
		}
		var busy sim.VTime
		var util float64
		for _, u := range utils {
			if u.Track == trk {
				busy, util = u.Busy, u.Util
			}
		}
		fmt.Fprintf(bw, "%-*s |%s| busy %v (%4.1f%%)\n", nameW, trk, cells, busy, util*100)
	}
	if evs := t.Events(); len(evs) > 0 {
		fmt.Fprintf(bw, "events:\n")
		for _, e := range evs {
			if e.Detail != "" {
				fmt.Fprintf(bw, "  %12v  %-14s %s: %s\n", e.At, e.Name, e.Track, e.Detail)
			} else {
				fmt.Fprintf(bw, "  %12v  %-14s %s\n", e.At, e.Name, e.Track)
			}
		}
	}
	return bw.Flush()
}
