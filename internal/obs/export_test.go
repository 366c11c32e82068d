package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// perfettoDoc mirrors just enough of the trace_event format to assert on
// exported documents.
type perfettoDoc struct {
	DisplayTimeUnit string `json:"displayTimeUnit"`
	TraceEvents     []struct {
		Name  string   `json:"name"`
		Cat   string   `json:"cat"`
		Phase string   `json:"ph"`
		TS    float64  `json:"ts"`
		Dur   *float64 `json:"dur"`
		PID   int      `json:"pid"`
		TID   int      `json:"tid"`
		Scope string   `json:"s"`
		Args  *struct {
			Name   string `json:"name"`
			Bytes  int64  `json:"bytes"`
			Seq    *int64 `json:"seq"`
			Detail string `json:"detail"`
		} `json:"args"`
	} `json:"traceEvents"`
}

func perfetto(t *testing.T, procs ...Process) (string, perfettoDoc) {
	t.Helper()
	var buf bytes.Buffer
	if err := WritePerfetto(&buf, procs...); err != nil {
		t.Fatalf("WritePerfetto: %v", err)
	}
	var doc perfettoDoc
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v\n%s", err, buf.String())
	}
	return buf.String(), doc
}

func TestWritePerfettoEmptyTrace(t *testing.T) {
	_, doc := perfetto(t, Process{Name: "empty", Trace: New()})
	if doc.DisplayTimeUnit != "ns" {
		t.Fatalf("displayTimeUnit = %q, want ns", doc.DisplayTimeUnit)
	}
	// An empty trace still announces its process, and nothing else.
	if len(doc.TraceEvents) != 1 {
		t.Fatalf("got %d events, want 1 (process_name only): %+v", len(doc.TraceEvents), doc.TraceEvents)
	}
	ev := doc.TraceEvents[0]
	if ev.Name != "process_name" || ev.Phase != "M" || ev.Args == nil || ev.Args.Name != "empty" {
		t.Fatalf("unexpected metadata event: %+v", ev)
	}
}

func TestWritePerfettoSingleSpan(t *testing.T) {
	tr := New()
	tr.AddSpan(Span{Name: "filter", Track: "cpu0", Kind: SpanStage,
		Start: 1000, End: 3000, Seq: 7, Bytes: 4096})
	_, doc := perfetto(t, Process{Name: "dataflow", Trace: tr})

	var haveThread, haveSpan bool
	for _, ev := range doc.TraceEvents {
		switch {
		case ev.Phase == "M" && ev.Name == "thread_name":
			haveThread = true
			if ev.Args == nil || ev.Args.Name != "cpu0" {
				t.Fatalf("thread_name args = %+v, want track cpu0", ev.Args)
			}
		case ev.Phase == "X":
			haveSpan = true
			if ev.Name != "filter" || ev.Cat != "stage" {
				t.Fatalf("span event = %+v, want name filter cat stage", ev)
			}
			if ev.TS != 1.0 || ev.Dur == nil || *ev.Dur != 2.0 {
				t.Fatalf("span timing ts=%v dur=%v, want ts=1us dur=2us", ev.TS, ev.Dur)
			}
			if ev.Args == nil || ev.Args.Bytes != 4096 || ev.Args.Seq == nil || *ev.Args.Seq != 7 {
				t.Fatalf("span args = %+v, want bytes 4096 seq 7", ev.Args)
			}
		}
	}
	if !haveThread || !haveSpan {
		t.Fatalf("missing thread_name (%v) or span (%v) event", haveThread, haveSpan)
	}
}

func TestWritePerfettoNegativeSeqOmitted(t *testing.T) {
	tr := New()
	tr.AddSpan(Span{Name: "scan", Track: "media", Kind: SpanScan, Start: 0, End: 500, Seq: -1})
	raw, doc := perfetto(t, Process{Name: "p", Trace: tr})
	for _, ev := range doc.TraceEvents {
		if ev.Phase == "X" && ev.Args != nil && ev.Args.Seq != nil {
			t.Fatalf("seq emitted for Seq=-1 span: %s", raw)
		}
	}
}

func TestWritePerfettoEventOnlyTrack(t *testing.T) {
	// A track that carries only instant events (no spans) still gets a
	// thread via the catch-all tid path, and the instant lands on it.
	tr := New()
	tr.AddEvent(Event{Name: "retry", Track: "nic0->nic1", At: 2500, Detail: "segment 3"})
	_, doc := perfetto(t, Process{Name: "p", Trace: tr})

	threadTID := -1
	for _, ev := range doc.TraceEvents {
		if ev.Phase == "M" && ev.Name == "thread_name" {
			if ev.Args == nil || ev.Args.Name != "nic0->nic1" {
				t.Fatalf("thread_name = %+v, want link track", ev.Args)
			}
			threadTID = ev.TID
		}
	}
	if threadTID < 0 {
		t.Fatal("no thread_name emitted for event-only track")
	}
	var found bool
	for _, ev := range doc.TraceEvents {
		if ev.Phase == "i" {
			found = true
			if ev.Name != "retry" || ev.TID != threadTID || ev.Scope != "t" {
				t.Fatalf("instant = %+v, want name retry on tid %d scope t", ev, threadTID)
			}
			if ev.TS != 2.5 || ev.Args == nil || ev.Args.Detail != "segment 3" {
				t.Fatalf("instant ts/args = %v/%+v, want 2.5us detail", ev.TS, ev.Args)
			}
		}
	}
	if !found {
		t.Fatal("no instant event emitted")
	}
}

func TestWritePerfettoMultiProcessDeterministic(t *testing.T) {
	build := func() []Process {
		a := New()
		a.AddSpan(Span{Name: "scan", Track: "media", Kind: SpanScan, Start: 0, End: 100, Seq: 0, Bytes: 10})
		a.AddSpan(Span{Name: "xfer", Track: "link", Kind: SpanTransfer, Start: 100, End: 220, Seq: 0, Bytes: 10})
		a.AddEvent(Event{Name: "stall", Track: "link", At: 90})
		b := New()
		b.AddSpan(Span{Name: "agg", Track: "cpu", Kind: SpanStage, Start: 5, End: 10, Seq: -1})
		return []Process{{Name: "dataflow", Trace: a}, {Name: "volcano", Trace: b}}
	}
	first, doc := perfetto(t, build()...)
	second, _ := perfetto(t, build()...)
	if first != second {
		t.Fatalf("export not deterministic:\n--- first ---\n%s\n--- second ---\n%s", first, second)
	}
	// Two processes, distinct pids.
	pids := map[int]bool{}
	for _, ev := range doc.TraceEvents {
		pids[ev.PID] = true
	}
	if len(pids) != 2 {
		t.Fatalf("got pids %v, want exactly 2", pids)
	}
}

func TestWriteGanttRendersBusyCells(t *testing.T) {
	tr := New()
	tr.AddSpan(Span{Name: "scan", Track: "media", Kind: SpanScan, Start: 0, End: 500, Seq: -1})
	tr.AddSpan(Span{Name: "agg", Track: "cpu", Kind: SpanStage, Start: 500, End: 1000, Seq: -1})
	var buf bytes.Buffer
	if err := tr.WriteGantt(&buf, 1); err != nil { // below minimum → clamped to 10
		t.Fatalf("WriteGantt: %v", err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 3 { // header + two track rows, no events section
		t.Fatalf("got %d lines, want 3:\n%s", len(lines), out)
	}
	// Each track is busy for exactly half the makespan: 5 of 10 cells.
	for _, line := range lines[1:] {
		if got := strings.Count(line, "#"); got != 5 {
			t.Fatalf("row %q has %d busy cells, want 5", line, got)
		}
		if !strings.Contains(line, "50.0%") {
			t.Fatalf("row %q missing 50.0%% utilization", line)
		}
	}
	// Tracks render in sorted order.
	if !(strings.HasPrefix(lines[1], "cpu") && strings.HasPrefix(lines[2], "media")) {
		t.Fatalf("tracks out of order:\n%s", out)
	}

	// EXPLAIN ANALYZE's timeline is that chart plus the headline line;
	// with tracing off (nil trace) it is nothing.
	var tl bytes.Buffer
	if err := tr.WriteTimeline(&tl, 1); err != nil {
		t.Fatalf("WriteTimeline: %v", err)
	}
	if want := out + "makespan 1µs, resource busy 1µs, concurrency 1.00 (mean active resources)\n"; tl.String() != want {
		t.Fatalf("WriteTimeline = %q, want %q", tl.String(), want)
	}
	tl.Reset()
	if err := (*Trace)(nil).WriteTimeline(&tl, 64); err != nil || tl.Len() != 0 {
		t.Fatalf("nil trace wrote %q, err %v", tl.String(), err)
	}
}

func TestWriteGanttEventsSection(t *testing.T) {
	tr := New()
	tr.AddSpan(Span{Name: "scan", Track: "media", Kind: SpanScan, Start: 0, End: 100, Seq: -1})
	tr.AddEvent(Event{Name: "fault", Track: "media", At: 50, Detail: "read timeout"})
	var buf bytes.Buffer
	if err := tr.WriteGantt(&buf, 16); err != nil {
		t.Fatalf("WriteGantt: %v", err)
	}
	out := buf.String()
	if !strings.Contains(out, "events:") || !strings.Contains(out, "fault") ||
		!strings.Contains(out, "read timeout") {
		t.Fatalf("events section missing:\n%s", out)
	}
}
