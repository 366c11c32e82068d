package flow

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/columnar"
	"repro/internal/fabric"
	"repro/internal/obs"
	"repro/internal/sim"
)

// tracedPipeline builds a two-stage pipeline on two distinct devices
// joined by a link, with tracing enabled when tr is non-nil.
func tracedPipeline(tr *obs.Trace) *Pipeline {
	devA := fabric.NewSmartNIC("nicA", sim.GbitPerSec(100))
	devB := fabric.NewSmartNIC("nicB", sim.GbitPerSec(100))
	link := &fabric.Link{Name: "wire", A: "nicA", B: "nicB", Bandwidth: sim.GBPerSec, Latency: sim.Microsecond}
	return &Pipeline{
		Name:   "traced",
		Source: nBatchSource(16, 512),
		Stages: []Placed{
			{Stage: &passStage{name: "up"}, Device: devA, Op: fabric.OpFilter, ChargeInput: true},
			{Stage: &passStage{name: "down"}, Device: devB, Op: fabric.OpFilter, ChargeInput: true},
		},
		Paths:       [][]*fabric.Link{nil, {link}},
		Trace:       tr,
		SourceTrack: "src",
	}
}

func TestPipelineTraceTimeline(t *testing.T) {
	tr := obs.New()
	if _, err := tracedPipeline(tr).Run(context.Background(), func(*columnar.Batch) error { return nil }); err != nil {
		t.Fatal(err)
	}
	spans := tr.Spans()
	if len(spans) == 0 {
		t.Fatal("tracing enabled but no spans recorded")
	}
	var stageA, stageB, xfers, setups int
	for _, s := range spans {
		switch {
		case s.Kind == obs.SpanTransfer:
			xfers++
			if s.Track != "wire" {
				t.Fatalf("transfer span on track %q, want wire", s.Track)
			}
		case s.Kind == obs.SpanSetup:
			setups++
		case s.Track == "nicA":
			stageA++
		case s.Track == "nicB":
			stageB++
		}
	}
	if stageA != 16 || stageB != 16 {
		t.Fatalf("stage spans = %d/%d, want 16 each", stageA, stageB)
	}
	if xfers != 16 {
		t.Fatalf("transfer spans = %d, want 16", xfers)
	}
	if setups != 2 {
		t.Fatalf("setup spans = %d, want 2", setups)
	}
	// Per-track serialization invariant for work spans: on one device,
	// spans never overlap (transfers on link tracks may pipeline).
	byTrack := map[string][]obs.Span{}
	for _, s := range spans {
		if s.Kind != obs.SpanTransfer {
			byTrack[s.Track] = append(byTrack[s.Track], s)
		}
	}
	for trk, ss := range byTrack {
		for i := 1; i < len(ss); i++ {
			if ss[i].Start < ss[i-1].End {
				t.Fatalf("track %s: spans overlap (%v < %v)", trk, ss[i].Start, ss[i-1].End)
			}
		}
	}
	if len(tr.SeriesList()) == 0 {
		t.Fatal("no per-stage arrival series recorded")
	}
}

func TestPipelineTraceDeterministic(t *testing.T) {
	render := func() string {
		tr := obs.New()
		if _, err := tracedPipeline(tr).Run(context.Background(), func(*columnar.Batch) error { return nil }); err != nil {
			t.Fatal(err)
		}
		return fmt.Sprint(tr.Spans(), tr.Events(), tr.SeriesList())
	}
	a, b := render(), render()
	if a != b {
		t.Fatal("two identical traced runs produced different traces")
	}
}

func TestPipelineTraceDisabledRecordsNothing(t *testing.T) {
	p := tracedPipeline(nil)
	if _, err := p.Run(context.Background(), func(*columnar.Batch) error { return nil }); err != nil {
		t.Fatal(err)
	}
	// And the same pipeline still works with the nil trace's methods.
	if p.Trace.Enabled() {
		t.Fatal("nil trace enabled")
	}
}

// TestPortHotPathZeroAllocTracingOff guards the zero-allocation-off
// acceptance criterion: with no tape attached, the per-batch port cycle
// (Send, Recv, CreditReturn) must not allocate.
func TestPortHotPathZeroAllocTracingOff(t *testing.T) {
	done := make(chan struct{})
	port := newPort("hot", nil, 8, done, nil)
	b := intBatch(1, 2, 3)
	allocs := testing.AllocsPerRun(200, func() {
		if err := port.Send(b); err != nil {
			t.Fatal(err)
		}
		if _, ok, err := port.Recv(); err != nil || !ok {
			t.Fatal("recv failed")
		}
		port.CreditReturn()
	})
	if allocs != 0 {
		t.Fatalf("port hot path allocates %.1f objects/op with tracing off, want 0", allocs)
	}
}

// At width 1 a stage runs each batch on its own goroutine with the
// placed stage itself, outputs straight to the next port: a run of 1,010
// batches through two stages allocates exactly what a run of 10 does.
func TestWidthOneStageLoopAllocatesNothingPerBatch(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inexact under the race detector")
	}
	b := intBatch(1, 2, 3)
	allocs := func(batches int) float64 {
		return testing.AllocsPerRun(20, func() {
			p := &Pipeline{
				Name: "width-one",
				Source: func(emit Emit) error {
					for i := 0; i < batches; i++ {
						if err := emit(b); err != nil {
							return err
						}
					}
					return nil
				},
				Stages: []Placed{{Stage: &passStage{name: "a"}}, {Stage: &passStage{name: "b"}}},
			}
			if _, err := p.Run(context.Background(), func(*columnar.Batch) error { return nil }); err != nil {
				t.Fatal(err)
			}
		})
	}
	if few, many := allocs(10), allocs(1010); many != few {
		t.Errorf("a run allocates %.0f objects for 10 batches and %.0f for 1,010, want the same", few, many)
	}
}

// BenchmarkPortSendTracingOff is the benchmark form of the zero-alloc
// guard; run with -benchmem to see allocs/op (must be 0).
func BenchmarkPortSendTracingOff(b *testing.B) {
	done := make(chan struct{})
	port := newPort("bench", nil, 8, done, nil)
	batch := intBatch(1, 2, 3, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := port.Send(batch); err != nil {
			b.Fatal(err)
		}
		if _, ok, err := port.Recv(); err != nil || !ok {
			b.Fatal("recv failed")
		}
		port.CreditReturn()
	}
}
