package flow

import (
	"context"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/columnar"
	"repro/internal/fabric"
	"repro/internal/sim"
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
