package flow

import (
	"context"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/columnar"
	"repro/internal/fabric"
	"repro/internal/resilience"
	"repro/internal/sim"
	"repro/internal/wiring"
)

// runRecord is what one run reports and delivers.
type runRecord struct {
	res  Result
	sink [][]int64
}

// A run keeps its ports, counters and stage state to itself: one Pipeline
// value run twice back to back, and two pipelines of the same shape run
// at once, report the same port names and stats, the same per-stage batch
// counts and the same sink batches as a first run.
func TestPipelineRunsDoNotShareState(t *testing.T) {
	assertNoFlowLeaks(t)
	nic := fabric.NewSmartNIC("nic", sim.GbitPerSec(100))
	cpu := fabric.NewCPU("cpu", 4)
	wire := &fabric.Link{Name: "wire", A: "nic", B: "cpu", Bandwidth: sim.GBPerSec, Latency: sim.Microsecond}
	build := func() *Pipeline {
		return &Pipeline{
			Name:   "twice",
			Source: nBatchSource(20, 16),
			Stages: []Placed{
				{Stage: &doubleStage{}, Device: nic, Op: fabric.OpFilter, ChargeInput: true},
				{Stage: &passStage{name: "a"}, Device: cpu, Op: fabric.OpScan, ChargeInput: true},
				{Stage: &passStage{name: "b"}},
			},
			Paths: [][]*fabric.Link{nil, {wire}, nil},
			Depth: 2,
		}
	}
	run := func(p *Pipeline) runRecord {
		var rec runRecord
		res, err := p.Run(context.Background(), func(b *columnar.Batch) error {
			rec.sink = append(rec.sink, append([]int64(nil), b.Col(0).Int64s()...))
			return nil
		})
		if err != nil {
			t.Error(err)
		}
		// Copies, so a later run cannot write into what this one
		// reported; stalls depend on how the stage goroutines ran.
		res.Ports = slices.Clone(res.Ports)
		res.BatchesIn, res.BatchesOut = slices.Clone(res.BatchesIn), slices.Clone(res.BatchesOut)
		for i := range res.Ports {
			res.Ports[i].CreditStalls = 0
		}
		rec.res = res
		return rec
	}

	p := build()
	first := run(p)
	if len(first.res.Ports) != 3 || first.res.Ports[1].Name != "twice.port1" || len(first.sink) != 20 {
		t.Fatalf("first run: ports %+v, %d sink batches", first.res.Ports, len(first.sink))
	}
	if again := run(p); !reflect.DeepEqual(again, first) {
		t.Errorf("second run of one Pipeline:\n%+v\nwant\n%+v", again, first)
	}

	var wg sync.WaitGroup
	recs := make([]runRecord, 2)
	for i := range recs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			recs[i] = run(build())
		}()
	}
	wg.Wait()
	for i, rec := range recs {
		if !reflect.DeepEqual(rec, first) {
			t.Errorf("concurrent run %d:\n%+v\nwant\n%+v", i, rec, first)
		}
	}
}

// One Pipeline without services, run from two goroutines at once: each
// run takes all-off services of its own and writes nothing into the
// Pipeline, which a write of the default into Services would (go test
// -race reports it).
func TestOnePipelineWithoutServicesRunsTwiceAtOnce(t *testing.T) {
	assertNoFlowLeaks(t)
	p := &Pipeline{Name: "shared", Source: nBatchSource(20, 16), Stages: []Placed{{Stage: &passStage{name: "a"}}}}
	var wg sync.WaitGroup
	rows := make([]int64, 2)
	for i := range rows {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := p.Run(context.Background(), func(*columnar.Batch) error { return nil })
			if err != nil {
				t.Error(err)
			}
			rows[i] = res.SinkRows
		}()
	}
	wg.Wait()
	if rows[0] != 320 || rows[1] != 320 || p.Services != nil {
		t.Errorf("sink rows %v, want 320 each; Services %v after the runs, want nil", rows, p.Services)
	}
}

// With a health tracker set, each stage's key is built once a run, not
// once a batch: a run of 64 batches allocates what a run of 8 does.
func TestHealthKeyIsBuiltOncePerRun(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inexact under the race detector")
	}
	health := resilience.NewTracker(0.2, 1)
	svc := &wiring.Services{Resilience: &resilience.Policy{Health: health}}
	cpu := fabric.NewCPU("cpu", 4)
	b := intBatch(1, 2, 3)
	allocs := func(batches int) float64 {
		return testing.AllocsPerRun(20, func() {
			p := &Pipeline{
				Name: "health",
				Source: func(emit Emit) error {
					for i := 0; i < batches; i++ {
						if err := emit(b); err != nil {
							return err
						}
					}
					return nil
				},
				Stages:   []Placed{{Stage: &passStage{name: "a"}, Device: cpu}, {Stage: &passStage{name: "b"}, Device: cpu}},
				Services: svc,
			}
			if _, err := p.Run(context.Background(), func(*columnar.Batch) error { return nil }); err != nil {
				t.Fatal(err)
			}
		})
	}
	if few, many := allocs(8), allocs(64); many != few {
		t.Errorf("a run allocates %.0f objects for 8 batches and %.0f for 64, want the same", few, many)
	}
	if _, ok := health.Latency("stage/cpu"); !ok {
		t.Error("the tracker observed no stage/cpu latency")
	}
}
