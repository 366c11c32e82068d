package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"repro/internal/sim"
)

func TestNilTraceIsSafeAndOff(t *testing.T) {
	var tr *Trace
	if tr.Enabled() {
		t.Fatal("nil trace reports enabled")
	}
	tr.AddSpan(Span{Name: "x"})
	tr.AddEvent(Event{Name: "x"})
	tr.Sample("s", "bytes", 1, 2)
	tr.ClearSpans()
	if tr.Spans() != nil || tr.Events() != nil || tr.SeriesList() != nil || tr.Tracks() != nil {
		t.Fatal("nil trace returned data")
	}
	if tr.Makespan() != 0 || tr.WorkBusy() != 0 || tr.ConcurrencyFactor() != 0 {
		t.Fatal("nil trace returned nonzero analysis")
	}
	if tr.Utilizations() != nil {
		t.Fatal("nil trace returned utilizations")
	}
}

func TestTraceClock(t *testing.T) {
	var tr *Trace
	if tr.Now() != 0 || tr.Advance(5) != 0 {
		t.Fatal("nil trace's clock moved")
	}
	tr = New()
	if tr.Advance(5) != 5 || tr.Now() != 5 {
		t.Fatal("clock arithmetic wrong")
	}
	tr.ClearSpans()
	if tr.Now() != 0 {
		t.Fatalf("clock reads %d after ClearSpans, want 0", tr.Now())
	}
}

func TestClearSpansKeepsEvents(t *testing.T) {
	tr := New()
	tr.AddSpan(Span{Name: "a", Track: "t", End: 10})
	tr.AddEvent(Event{Name: "fault", Track: "t", At: 3})
	tr.Sample("m", "bytes", 1, 1)
	tr.ClearSpans()
	if len(tr.Spans()) != 0 || len(tr.SeriesList()) != 0 {
		t.Fatal("spans or series survived ClearSpans")
	}
	if len(tr.Events()) != 1 {
		t.Fatal("events did not survive ClearSpans")
	}
}

func TestConcurrencyFactorCountsAllResources(t *testing.T) {
	tr := New()
	tr.AddSpan(Span{Name: "a", Track: "dev0", Kind: SpanStage, Start: 0, End: 100})
	tr.AddSpan(Span{Name: "b", Track: "dev1", Kind: SpanStage, Start: 0, End: 100})
	tr.AddSpan(Span{Name: "x", Track: "link", Kind: SpanTransfer, Start: 0, End: 1000})
	// Two devices busy for 100 plus a DMA busy for 1000 over a 1000
	// makespan: mean active resources = 1200/1000.
	if got := tr.ConcurrencyFactor(); got < 1.19 || got > 1.21 {
		t.Fatalf("concurrency factor = %v, want 1.2", got)
	}
	if tr.Makespan() != 1000 {
		t.Fatalf("makespan = %v, want 1000", tr.Makespan())
	}
	if tr.WorkBusy() != 1200 {
		t.Fatalf("work busy = %v, want 1200 (transfers are work)", tr.WorkBusy())
	}
	// A strictly serial timeline pins the factor at 1.0 regardless of
	// span kinds.
	serial := New()
	serial.AddSpan(Span{Name: "a", Track: "dev0", Kind: SpanStage, Start: 0, End: 100})
	serial.AddSpan(Span{Name: "x", Track: "link", Kind: SpanTransfer, Start: 100, End: 300})
	serial.AddSpan(Span{Name: "b", Track: "dev1", Kind: SpanStage, Start: 300, End: 400})
	if got := serial.ConcurrencyFactor(); got < 0.99 || got > 1.01 {
		t.Fatalf("serial concurrency factor = %v, want 1.0", got)
	}
}

// twoStageTape builds a pipeline tape with nBatches source emissions
// feeding stage "f" (track devA) then stage "g" (track devB), each
// batch costing costA/costB and forwarding 1:1.
func twoStageTape(nBatches, depth int, gap, costA, costB sim.VTime) *Tape {
	tape := NewTape(depth)
	tape.Source.Track = "src"
	f := &StageTape{Name: "f", Track: "devA", FaultInput: -1}
	g := &StageTape{Name: "g", Track: "devB", FaultInput: -1}
	for i := 0; i < nBatches; i++ {
		tape.Source.Emits = append(tape.Source.Emits, Emission{At: sim.VTime(i) * gap, Bytes: 100})
		f.Inputs = append(f.Inputs, TapeInput{Bytes: 100, Cost: costA, Outs: 1})
		f.Xfers = append(f.Xfers, Xfer{Bytes: 100, Hops: []Hop{{Link: "l0", Cost: 1}}})
		g.Inputs = append(g.Inputs, TapeInput{Bytes: 100, Cost: costB, Outs: 1})
		g.Xfers = append(g.Xfers, Xfer{Bytes: 100, Hops: []Hop{{Link: "l1", Cost: 1}}})
	}
	tape.Stages = append(tape.Stages, f, g)
	return tape
}

func TestReplayOverlapAcrossTracks(t *testing.T) {
	tape := twoStageTape(16, 8, 10, 10, 10)
	tr := New()
	mk := tape.Replay(tr)
	if mk <= 0 {
		t.Fatal("no makespan")
	}
	// Two equally loaded stages on distinct devices, staggered arrivals:
	// the steady state runs both concurrently.
	if cf := tr.ConcurrencyFactor(); cf < 1.5 {
		t.Fatalf("concurrency factor = %.2f, want > 1.5 for overlapped stages", cf)
	}
	// Serial sanity: same tape with both stages on one track must not
	// overlap.
	tape2 := twoStageTape(16, 8, 10, 10, 10)
	tape2.Stages[0].Track = "dev"
	tape2.Stages[1].Track = "dev"
	tr2 := New()
	tape2.Replay(tr2)
	for _, u := range tr2.Utilizations() {
		if u.Util > 1.0001 {
			t.Fatalf("track %s over-utilized (%.3f): spans overlap on one track", u.Track, u.Util)
		}
	}
	if cf := tr2.ConcurrencyFactor(); cf > 1.05 {
		t.Fatalf("same-track concurrency factor = %.2f, want <= ~1.0", cf)
	}
}

func TestReplayCreditBackpressure(t *testing.T) {
	// Fast producer, slow consumer, shallow port: the producer must
	// stall on credits and the replay must say so.
	tape := twoStageTape(12, 2, 1, 1, 50)
	tr := New()
	tape.Replay(tr)
	stalls := 0
	for _, e := range tr.Events() {
		if e.Name == "credit-stall" {
			stalls++
		}
	}
	if stalls == 0 {
		t.Fatal("no credit-stall events despite depth-2 port and 50x slower consumer")
	}
	// Throughput is consumer-bound: makespan at least 12 * costB.
	if mk := tr.Makespan(); mk < 12*50 {
		t.Fatalf("makespan %v too small for consumer-bound pipeline", mk)
	}
}

func TestReplayFaultAndFlush(t *testing.T) {
	tape := NewTape(8)
	tape.Source.Track = "src"
	st := &StageTape{Name: "agg", Track: "dev", FaultInput: -1, FlushOuts: 1}
	for i := 0; i < 4; i++ {
		tape.Source.Emits = append(tape.Source.Emits, Emission{At: sim.VTime(i) * 5, Bytes: 10})
		st.Inputs = append(st.Inputs, TapeInput{Bytes: 10, Cost: 5, Outs: 0})
		st.Xfers = append(st.Xfers, Xfer{Bytes: 10})
	}
	tape.Stages = append(tape.Stages, st)
	tr := New()
	mk := tape.Replay(tr)
	if mk <= 0 {
		t.Fatal("no makespan")
	}
	if got := len(tr.Spans()); got != 4 {
		t.Fatalf("span count = %d, want 4 processing spans", got)
	}

	// Faulted variant: stage dies after 2 inputs; replay must emit the
	// fault event and stop cleanly (no flush).
	ftape := NewTape(8)
	ftape.Source.Track = "src"
	fst := &StageTape{Name: "agg", Track: "dev", FaultInput: 2, FaultDetail: "device offline", FlushOuts: 1}
	for i := 0; i < 4; i++ {
		ftape.Source.Emits = append(ftape.Source.Emits, Emission{At: sim.VTime(i) * 5, Bytes: 10})
	}
	for i := 0; i < 2; i++ {
		fst.Inputs = append(fst.Inputs, TapeInput{Bytes: 10, Cost: 5, Outs: 0})
		fst.Xfers = append(fst.Xfers, Xfer{Bytes: 10})
	}
	ftape.Stages = append(ftape.Stages, fst)
	ftr := New()
	ftape.Replay(ftr)
	var fault *Event
	for _, e := range ftr.Events() {
		if e.Name == "fault" {
			ev := e
			fault = &ev
		}
	}
	if fault == nil || fault.Detail != "device offline" {
		t.Fatalf("fault event missing or wrong: %+v", fault)
	}
}

func TestReplaySetupSerializedPerTrack(t *testing.T) {
	tape := NewTape(8)
	tape.Stages = append(tape.Stages,
		&StageTape{Name: "k0", Track: "dev", Setup: 10, FaultInput: -1},
		&StageTape{Name: "k1", Track: "dev", Setup: 10, FaultInput: -1},
	)
	tr := New()
	tape.Replay(tr)
	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("want 2 setup spans, got %d", len(spans))
	}
	if spans[0].End > spans[1].Start {
		t.Fatalf("setup spans overlap on one track: %+v %+v", spans[0], spans[1])
	}
	if spans[1].End != 20 {
		t.Fatalf("second setup ends at %v, want 20", spans[1].End)
	}
}

func TestReplayDeterministic(t *testing.T) {
	render := func() string {
		tape := twoStageTape(32, 4, 3, 7, 9)
		tr := New()
		tape.Replay(tr)
		return fmt.Sprint(tr.Spans(), tr.Events(), tr.SeriesList())
	}
	a, b := render(), render()
	if a != b {
		t.Fatal("identical tapes replayed to different traces")
	}
}

func TestWritePerfettoIsValidJSON(t *testing.T) {
	tape := twoStageTape(8, 8, 10, 10, 10)
	tr := New()
	tape.Replay(tr)
	tr.AddEvent(Event{Name: "retry", Track: "devA", At: 5, Detail: "transient"})
	var buf bytes.Buffer
	if err := WritePerfetto(&buf, Process{Name: "dataflow", Trace: tr}, Process{Name: "volcano", Trace: New()}); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("perfetto output is not valid JSON: %v", err)
	}
	var complete, instant, meta int
	for _, ev := range doc.TraceEvents {
		switch ev["ph"] {
		case "X":
			complete++
		case "i":
			instant++
		case "M":
			meta++
		}
	}
	if complete == 0 || instant == 0 || meta < 2 {
		t.Fatalf("perfetto doc shape wrong: X=%d i=%d M=%d", complete, instant, meta)
	}
}

func TestWriteGantt(t *testing.T) {
	tape := twoStageTape(8, 8, 10, 10, 10)
	tr := New()
	tape.Replay(tr)
	var buf bytes.Buffer
	if err := tr.WriteGantt(&buf, 40); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"devA", "devB", "l0", "#", "busy"} {
		if !strings.Contains(out, want) {
			t.Fatalf("gantt output missing %q:\n%s", want, out)
		}
	}
}

func TestSeriesSampling(t *testing.T) {
	tr := New()
	tr.Sample("meter.bytes", "bytes", 10, 100)
	tr.Sample("meter.bytes", "bytes", 20, 250)
	tr.Sample("alpha", "ops", 1, 1)
	sl := tr.SeriesList()
	if len(sl) != 2 || sl[0].Name != "alpha" || sl[1].Name != "meter.bytes" {
		t.Fatalf("series list wrong: %+v", sl)
	}
	if len(sl[1].Points) != 2 || sl[1].Points[1].Value != 250 {
		t.Fatalf("points wrong: %+v", sl[1].Points)
	}
}
