package flow

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/columnar"
	"repro/internal/fabric"
	"repro/internal/sim"
)

var intSchema = columnar.NewSchema(columnar.Field{Name: "v", Type: columnar.Int64})

func intBatch(vals ...int64) *columnar.Batch {
	return columnar.BatchOf(intSchema, columnar.FromInt64s(vals))
}

// passStage forwards batches unchanged.
type passStage struct{ name string }

func (s *passStage) Name() string { return s.name }
func (s *passStage) Process(b *columnar.Batch, emit Emit) error {
	return emit(b)
}
func (s *passStage) Flush(Emit) error { return nil }

// doubleStage multiplies every value by two.
type doubleStage struct{}

func (s *doubleStage) Name() string { return "double" }
func (s *doubleStage) Process(b *columnar.Batch, emit Emit) error {
	vals := b.Col(0).Int64s()
	out := make([]int64, len(vals))
	for i, v := range vals {
		out[i] = v * 2
	}
	return emit(intBatch(out...))
}
func (s *doubleStage) Flush(Emit) error { return nil }

// sumStage retains a running sum and emits it at flush.
type sumStage struct{ sum int64 }

func (s *sumStage) Name() string { return "sum" }
func (s *sumStage) Process(b *columnar.Batch, emit Emit) error {
	for _, v := range b.Col(0).Int64s() {
		s.sum += v
	}
	return nil
}
func (s *sumStage) Flush(emit Emit) error { return emit(intBatch(s.sum)) }

// failStage errors on the nth batch.
type failStage struct {
	n    int
	seen int
}

func (s *failStage) Name() string { return "fail" }
func (s *failStage) Process(b *columnar.Batch, emit Emit) error {
	s.seen++
	if s.seen >= s.n {
		return errors.New("stage exploded")
	}
	return emit(b)
}
func (s *failStage) Flush(Emit) error { return nil }

func nBatchSource(n, rowsPer int) Source {
	return func(emit Emit) error {
		for i := 0; i < n; i++ {
			vals := make([]int64, rowsPer)
			for j := range vals {
				vals[j] = int64(i*rowsPer + j)
			}
			if err := emit(intBatch(vals...)); err != nil {
				return err
			}
		}
		return nil
	}
}

func TestPipelineSourceOnly(t *testing.T) {
	p := &Pipeline{Name: "src", Source: nBatchSource(3, 10)}
	var rows int64
	res, err := p.Run(context.Background(), func(b *columnar.Batch) error {
		rows += int64(b.NumRows())
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if rows != 30 || res.SinkRows != 30 || res.SinkBatches != 3 {
		t.Errorf("rows=%d res=%+v", rows, res)
	}
}

// goroutineID reads the calling goroutine's id off the first line of its
// stack trace ("goroutine 7 [running]:").
func goroutineID() string {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	return string(bytes.Fields(buf)[1])
}

// TestSourceRunsOnTheCallersGoroutine: Run starts a goroutine per stage
// and none for its source, which emits from the goroutine that called Run
// — with no stage, straight into the sink, and past port 0's credits
// (Depth 1) with two.
func TestSourceRunsOnTheCallersGoroutine(t *testing.T) {
	assertNoFlowLeaks(t)
	for _, stages := range [][]Placed{nil, {{Stage: &passStage{"a"}}, {Stage: &passStage{"b"}}}} {
		caller, emits := goroutineID(), 0
		src := func(emit Emit) error {
			if id := goroutineID(); id != caller {
				return fmt.Errorf("source on goroutine %s, Run called on %s", id, caller)
			}
			for i := 0; i < 10; i++ {
				if err := emit(intBatch(int64(i))); err != nil {
					return err
				}
				emits++
			}
			return nil
		}
		p := &Pipeline{Name: "caller", Source: src, Stages: stages, Depth: 1}
		res, err := p.Run(context.Background(), func(*columnar.Batch) error { return nil })
		if err != nil {
			t.Fatalf("%d stages: %v", len(stages), err)
		}
		if emits != 10 || res.SinkBatches != 10 {
			t.Fatalf("%d stages: %d emitted, %d at the sink, want 10", len(stages), emits, res.SinkBatches)
		}
	}
}

func TestPipelineStagesTransform(t *testing.T) {
	p := &Pipeline{
		Name:   "xform",
		Source: nBatchSource(4, 5),
		Stages: []Placed{
			{Stage: &doubleStage{}},
			{Stage: &sumStage{}},
		},
	}
	var got []int64
	res, err := p.Run(context.Background(), func(b *columnar.Batch) error {
		got = append(got, b.Col(0).Int64s()...)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// sum(0..19)*2 = 380, emitted as a single flush batch.
	if len(got) != 1 || got[0] != 380 {
		t.Fatalf("sink = %v, want [380]", got)
	}
	if res.BatchesIn[0] != 4 || res.BatchesOut[0] != 4 {
		t.Errorf("stage0 in/out = %d/%d", res.BatchesIn[0], res.BatchesOut[0])
	}
	if res.BatchesIn[1] != 4 || res.BatchesOut[1] != 1 {
		t.Errorf("stage1 in/out = %d/%d", res.BatchesIn[1], res.BatchesOut[1])
	}
}

func TestPipelineChargesDevicesAndLinks(t *testing.T) {
	dev := fabric.NewSmartNIC("nic", sim.GbitPerSec(100))
	link := &fabric.Link{Name: "wire", A: "a", B: "b", Bandwidth: sim.GBPerSec, Latency: sim.Microsecond}
	p := &Pipeline{
		Name:   "charged",
		Source: nBatchSource(10, 100),
		Stages: []Placed{
			{Stage: &passStage{name: "nic-pass"}, Device: dev, Op: fabric.OpFilter, ChargeInput: true},
		},
		Paths: [][]*fabric.Link{{link}},
	}
	if _, err := p.Run(context.Background(), func(*columnar.Batch) error { return nil }); err != nil {
		t.Fatal(err)
	}
	wantBytes := sim.Bytes(10 * 100 * 8)
	if dev.Meter.Bytes() != wantBytes {
		t.Errorf("device bytes = %v, want %v", dev.Meter.Bytes(), wantBytes)
	}
	if dev.Meter.Busy() <= fabric.KernelSetupAcc {
		t.Error("device busy time missing stream cost")
	}
	if link.Meter.Bytes() != wantBytes {
		t.Errorf("link bytes = %v, want %v", link.Meter.Bytes(), wantBytes)
	}
	if link.Meter.Messages() == 0 {
		t.Error("no credit messages charged to link")
	}
}

func TestPipelineErrorPropagates(t *testing.T) {
	p := &Pipeline{
		Name:   "failing",
		Source: nBatchSource(100, 10),
		Stages: []Placed{
			{Stage: &passStage{name: "p1"}},
			{Stage: &failStage{n: 3}},
			{Stage: &passStage{name: "p2"}},
		},
		Depth: 2,
	}
	_, err := p.Run(context.Background(), func(*columnar.Batch) error { return nil })
	if err == nil || err.Error() != "stage exploded" {
		t.Fatalf("err = %v, want stage exploded", err)
	}
}

func TestPipelineSourceErrorPropagates(t *testing.T) {
	p := &Pipeline{
		Name: "srcfail",
		Source: func(emit Emit) error {
			if err := emit(intBatch(1)); err != nil {
				return err
			}
			return errors.New("source broke")
		},
		Stages: []Placed{{Stage: &passStage{name: "p"}}},
	}
	_, err := p.Run(context.Background(), func(*columnar.Batch) error { return nil })
	if err == nil || err.Error() != "source broke" {
		t.Fatalf("err = %v", err)
	}
}

func TestPipelineSinkErrorPropagates(t *testing.T) {
	p := &Pipeline{
		Name:   "sinkfail",
		Source: nBatchSource(5, 1),
		Stages: []Placed{{Stage: &passStage{name: "p"}}},
	}
	_, err := p.Run(context.Background(), func(*columnar.Batch) error { return errors.New("sink full") })
	if err == nil || err.Error() != "sink full" {
		t.Fatalf("err = %v", err)
	}
}

func TestPipelineValidation(t *testing.T) {
	p := &Pipeline{Name: "nosrc"}
	if _, err := p.Run(context.Background(), func(*columnar.Batch) error { return nil }); err == nil {
		t.Error("pipeline without source ran")
	}
	p2 := &Pipeline{
		Name:   "badpaths",
		Source: nBatchSource(1, 1),
		Stages: []Placed{{Stage: &passStage{name: "s"}}},
		Paths:  [][]*fabric.Link{nil, nil},
	}
	if _, err := p2.Run(context.Background(), func(*columnar.Batch) error { return nil }); err == nil {
		t.Error("mismatched Paths accepted")
	}
}

func TestCreditFlowBatching(t *testing.T) {
	// With depth 16 the credit batch is 8: credits return ~1 message per 8
	// data messages.
	p := &Pipeline{
		Name:   "credits",
		Source: nBatchSource(64, 1),
		Stages: []Placed{{Stage: &passStage{name: "p"}}},
		Depth:  16,
	}
	res, err := p.Run(context.Background(), func(*columnar.Batch) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	ps := res.Ports[0]
	if ps.DataMessages != 64 {
		t.Fatalf("data messages = %d, want 64", ps.DataMessages)
	}
	if ps.CreditMessages > ps.DataMessages/4 {
		t.Errorf("credit messages = %d for %d data; batching ineffective", ps.CreditMessages, ps.DataMessages)
	}
	if ps.CreditMessages == 0 {
		t.Error("no credit messages at all")
	}
}

func TestBackpressureBoundsInFlight(t *testing.T) {
	// A slow consumer with depth 2: the source must never run more than
	// depth+1 batches ahead.
	var produced, consumed atomic.Int64
	var maxLead int64
	src := func(emit Emit) error {
		for i := 0; i < 50; i++ {
			if err := emit(intBatch(int64(i))); err != nil {
				return err
			}
			lead := produced.Add(1) - consumed.Load()
			if lead > maxLead {
				maxLead = lead
			}
		}
		return nil
	}
	slow := func(b *columnar.Batch) error {
		consumed.Add(1)
		return nil
	}
	p := &Pipeline{
		Name:   "backpressure",
		Source: src,
		Stages: []Placed{{Stage: &passStage{name: "p"}}},
		Depth:  2,
	}
	if _, err := p.Run(context.Background(), slow); err != nil {
		t.Fatal(err)
	}
	// Allowed in flight: port queue (2) + credit slack (2) + one in each
	// of the two goroutines' hands.
	if maxLead > 6 {
		t.Errorf("producer ran %d batches ahead with depth 2", maxLead)
	}
}

func TestPortDepthOne(t *testing.T) {
	p := &Pipeline{
		Name:   "depth1",
		Source: nBatchSource(10, 2),
		Stages: []Placed{{Stage: &doubleStage{}}},
		Depth:  1,
	}
	var rows int
	if _, err := p.Run(context.Background(), func(b *columnar.Batch) error { rows += b.NumRows(); return nil }); err != nil {
		t.Fatal(err)
	}
	if rows != 20 {
		t.Errorf("rows = %d, want 20", rows)
	}
}

func TestLongChainManyBatches(t *testing.T) {
	stages := make([]Placed, 6)
	for i := range stages {
		stages[i] = Placed{Stage: &passStage{name: fmt.Sprintf("s%d", i)}}
	}
	p := &Pipeline{Name: "chain", Source: nBatchSource(200, 3), Stages: stages, Depth: 4}
	var rows int
	res, err := p.Run(context.Background(), func(b *columnar.Batch) error { rows += b.NumRows(); return nil })
	if err != nil {
		t.Fatal(err)
	}
	if rows != 600 {
		t.Errorf("rows = %d, want 600", rows)
	}
	for i := range stages {
		if res.BatchesIn[i] != 200 {
			t.Errorf("stage %d saw %d batches", i, res.BatchesIn[i])
		}
	}
	if res.TotalDataMessages() != 6*200 {
		t.Errorf("total data messages = %d, want 1200", res.TotalDataMessages())
	}
	if res.TotalCreditMessages() == 0 || res.TotalCreditMessages() > res.TotalDataMessages() {
		t.Errorf("credit messages = %d out of line with %d data", res.TotalCreditMessages(), res.TotalDataMessages())
	}
}

func TestPortStatsString(t *testing.T) {
	done := make(chan struct{})
	port := newPort("x", nil, 4, done, nil)
	if err := port.Send(intBatch(1, 2)); err != nil {
		t.Fatal(err)
	}
	s := port.Stats()
	if s.DataMessages != 1 || s.Bytes != 16 {
		t.Errorf("stats = %+v", s)
	}
	if s.String() == "" {
		t.Error("empty String()")
	}
}
