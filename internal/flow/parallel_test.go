package flow

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/columnar"
	"repro/internal/fabric"
	"repro/internal/obs"
	"repro/internal/sim"
)

// pDouble is the stateless parallel version of doubleStage.
type pDouble struct{ doubleStage }

func (s *pDouble) NewWorker() Stage { return &pDouble{} }
func (s *pDouble) Stateless() bool  { return true }

// pSum is a stateful parallel stage: each worker replica keeps its own
// running sum and emits it at flush, so the sink sees one sum per
// worker, in worker order.
type pSum struct{ sumStage }

func (s *pSum) NewWorker() Stage { return &sumStage{} }
func (s *pSum) Stateless() bool  { return false }

// pFail is a stateless parallel stage that errors on batches whose
// first value reaches a threshold.
type pFail struct{ at int64 }

func (s *pFail) Name() string { return "pfail" }
func (s *pFail) Process(b *columnar.Batch, emit Emit) error {
	if b.Col(0).Int64s()[0] >= s.at {
		return errors.New("stage exploded")
	}
	return emit(b)
}
func (s *pFail) Flush(Emit) error { return nil }
func (s *pFail) NewWorker() Stage { return &pFail{at: s.at} }
func (s *pFail) Stateless() bool  { return true }

// pSlow is a stateless parallel stage whose workers park in a
// cancellable delay.
type pSlow struct {
	SlowStage
	delay time.Duration
}

func newPSlow(delay time.Duration) *pSlow {
	return &pSlow{SlowStage: SlowStage{Inner: &passStage{name: "slow"}, Delay: delay}, delay: delay}
}
func (s *pSlow) NewWorker() Stage { return newPSlow(s.delay) }
func (s *pSlow) Stateless() bool  { return true }

// A parallel stateless stage must be observationally identical to the
// serial one: the merger reorders worker outputs back into arrival
// order before anything reaches the sink.
func TestParallelStageOrderedMerge(t *testing.T) {
	assertNoFlowLeaks(t)
	// Workers 0 and 1 must both take the serial loop.
	for _, workers := range []int{0, 1, 2, 4, 7} {
		t.Run(fmt.Sprintf("w%d", workers), func(t *testing.T) {
			p := &Pipeline{
				Name:    "par-merge",
				Source:  nBatchSource(40, 5),
				Stages:  []Placed{{Stage: &pDouble{}}},
				Workers: workers,
			}
			var got []int64
			res, err := p.Run(context.Background(), func(b *columnar.Batch) error {
				got = append(got, b.Col(0).Int64s()...)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != 200 {
				t.Fatalf("sink rows = %d, want 200", len(got))
			}
			for i, v := range got {
				if v != int64(i*2) {
					t.Fatalf("sink[%d] = %d, want %d (order not preserved)", i, v, i*2)
				}
			}
			if res.BatchesIn[0] != 40 || res.BatchesOut[0] != 40 {
				t.Errorf("stage in/out = %d/%d, want 40/40", res.BatchesIn[0], res.BatchesOut[0])
			}
		})
	}
}

// Stateful parallel stages are fed round-robin by arrival sequence, so
// each replica's state — and its flush output — is independent of
// goroutine scheduling. Two runs must produce byte-identical sinks.
func TestParallelStatefulRoundRobinDeterministic(t *testing.T) {
	assertNoFlowLeaks(t)
	run := func() []int64 {
		p := &Pipeline{
			Name: "par-sum",
			Source: func(emit Emit) error {
				for i := int64(1); i <= 10; i++ {
					if err := emit(intBatch(i)); err != nil {
						return err
					}
				}
				return nil
			},
			Stages:  []Placed{{Stage: &pSum{}}},
			Workers: 3,
		}
		var got []int64
		if _, err := p.Run(context.Background(), func(b *columnar.Batch) error {
			got = append(got, b.Col(0).Int64s()...)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return got
	}
	first := run()
	// Round-robin: worker0 gets 1,4,7,10=22; worker1 gets 2,5,8=15;
	// worker2 gets 3,6,9=18; flushed in worker order.
	want := []int64{22, 15, 18}
	if len(first) != 3 || first[0] != want[0] || first[1] != want[1] || first[2] != want[2] {
		t.Fatalf("flush sums = %v, want %v", first, want)
	}
	for i := 0; i < 5; i++ {
		again := run()
		for j := range want {
			if again[j] != first[j] {
				t.Fatalf("run %d flush = %v, differs from first %v", i, again, first)
			}
		}
	}
}

// A worker error must surface from Run and unwind every goroutine.
func TestParallelStageErrorPropagates(t *testing.T) {
	assertNoFlowLeaks(t)
	p := &Pipeline{
		Name:    "par-fail",
		Source:  nBatchSource(30, 4),
		Stages:  []Placed{{Stage: &pFail{at: 40}}},
		Workers: 4,
	}
	_, err := p.Run(context.Background(), func(*columnar.Batch) error { return nil })
	if err == nil || !containsStr(err.Error(), "stage exploded") {
		t.Fatalf("err = %v, want stage exploded", err)
	}
}

// A stage whose Process fails dies the same way at every width: the
// same error, and one fault event on the replayed trace where it died.
func TestProcessErrorAnnotatedAtEveryWidth(t *testing.T) {
	assertNoFlowLeaks(t)
	var errs []string
	for _, workers := range []int{1, 2} {
		tr := obs.New()
		p := &Pipeline{
			Name:    "fault-annotated",
			Source:  nBatchSource(30, 4),
			Stages:  []Placed{{Stage: &pFail{at: 40}}},
			Workers: workers,
			Trace:   tr,
		}
		_, err := p.Run(context.Background(), func(*columnar.Batch) error { return nil })
		if err == nil {
			t.Fatalf("w%d: run succeeded, want stage exploded", workers)
		}
		errs = append(errs, err.Error())
		faults := 0
		for _, e := range tr.Events() {
			if e.Name == "fault" {
				faults++
			}
		}
		if faults != 1 {
			t.Errorf("w%d: %d fault events, want 1", workers, faults)
		}
	}
	if errs[0] != errs[1] {
		t.Errorf("width 1 failed with %q, width 2 with %q", errs[0], errs[1])
	}
}

// Cancellation must unwind a parallel pool whose workers are parked in
// a delay, exactly as it unwinds a hung serial stage.
func TestCancelUnblocksParallelPipeline(t *testing.T) {
	assertNoFlowLeaks(t)
	p := &Pipeline{
		Name:    "par-cancel",
		Source:  nBatchSource(50, 4),
		Stages:  []Placed{{Stage: newPSlow(time.Hour)}},
		Workers: 4,
		Depth:   2,
	}
	ctx, cancel := context.WithCancel(context.Background())
	timer := time.AfterFunc(30*time.Millisecond, cancel)
	defer timer.Stop()
	start := time.Now()
	_, err := p.Run(ctx, func(*columnar.Batch) error { return nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled in chain", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation took %s to unwind", elapsed)
	}
}

// Worker pools charge their device through positional lanes: the
// totals — the device's meter and the run's account alike — are
// identical to a serial run, and the account's per-lane split only
// changes the effective (overlapped) busy time.
func TestParallelMeteredTotalsMatchSerial(t *testing.T) {
	assertNoFlowLeaks(t)
	run := func(workers int) (*fabric.Device, fabric.Usage) {
		topo := fabric.NewTopology("par-meter")
		dev := topo.AddDevice(fabric.NewSmartNIC("nic", sim.GbitPerSec(100)))
		p := &Pipeline{
			Name:    "par-meter",
			Source:  nBatchSource(16, 64),
			Stages:  []Placed{{Stage: &pDouble{}, Device: dev, Op: fabric.OpFilter, ChargeInput: true}},
			Workers: workers,
			Account: topo.NewAccount(),
		}
		if _, err := p.Run(context.Background(), func(*columnar.Batch) error { return nil }); err != nil {
			t.Fatal(err)
		}
		return dev, p.Account.Device(dev)
	}
	serial, serialUse := run(1)
	parallel, use := run(4)
	if serial.Meter.Bytes() != parallel.Meter.Bytes() {
		t.Errorf("metered bytes differ: serial %v parallel %v", serial.Meter.Bytes(), parallel.Meter.Bytes())
	}
	if serial.Meter.Busy() != parallel.Meter.Busy() {
		t.Errorf("metered busy differs: serial %v parallel %v", serial.Meter.Busy(), parallel.Meter.Busy())
	}
	// The one run on each device is all its meter ever saw.
	if use.Snapshot != parallel.Meter.Snapshot() || serialUse.Snapshot != serial.Meter.Snapshot() {
		t.Errorf("account != meter: parallel %+v vs %+v, serial %+v vs %+v",
			use.Snapshot, parallel.Meter.Snapshot(), serialUse.Snapshot, serial.Meter.Snapshot())
	}
	if serialUse.Effective != serialUse.Busy {
		t.Errorf("serial effective busy %v != total %v", serialUse.Effective, serialUse.Busy)
	}
	// The parallel run spread the same busy across 4 lanes — sixteen equal
	// batches, four to a lane by sequence number — so the overlapped
	// makespan shrinks to a quarter while the total stays put. Everything
	// this stage charged went through a lane; only the shared kernel-setup
	// charge stays serial.
	if want := fabric.KernelSetupAcc + (use.Busy-fabric.KernelSetupAcc)/4; use.Effective != want {
		t.Errorf("effective busy %v, want setup %v + a quarter of the rest of %v = %v",
			use.Effective, fabric.KernelSetupAcc, use.Busy, want)
	}
}

// Checkpoint markers must survive a parallel stage: they are merged at
// their arrival position, so every epoch's cut and sink watermark is
// identical to the serial run's.
func TestCheckpointThroughParallelStage(t *testing.T) {
	assertNoFlowLeaks(t)
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("w%d", workers), func(t *testing.T) {
			ck := NewCheckpointer()
			p := &Pipeline{
				Name:   "par-ckpt",
				Source: markedSource(ck, 6, map[int]int{1: 2, 2: 4}),
				Stages: []Placed{
					{Stage: &pDouble{}},
					{Stage: &ckptSumStage{}},
				},
				Ckpt:    ck,
				Workers: workers,
			}
			var sink []int64
			res, err := p.Run(context.Background(), func(b *columnar.Batch) error {
				sink = append(sink, b.Col(0).Int64s()[0])
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			// 6 doubled batches then the flushed sum 2*(1+..+6)=42.
			if len(sink) != 7 || sink[6] != 42 {
				t.Fatalf("sink = %v, want 2,4,..,12 then 42", sink)
			}
			if got := ck.Completed(); got != 2 {
				t.Errorf("Completed = %d, want 2", got)
			}
			// Epoch cuts: sums at the marker positions, doubled.
			if snaps := ck.Snaps(1); len(snaps) != 2 || snaps[1] != int64(6) {
				t.Errorf("Snaps(1) = %v, want [nil 6]", snaps)
			}
			if snaps := ck.Snaps(2); snaps[1] != int64(20) {
				t.Errorf("Snaps(2)[1] = %v, want 20", snaps[1])
			}
			if n := ck.SinkBatches(1); n != 2 {
				t.Errorf("SinkBatches(1) = %d, want 2", n)
			}
			if n := ck.SinkBatches(2); n != 4 {
				t.Errorf("SinkBatches(2) = %d, want 4", n)
			}
			for i, ps := range res.Ports {
				if ps.MarkerMessages != 2 {
					t.Errorf("port %d carried %d markers, want 2", i, ps.MarkerMessages)
				}
			}
		})
	}
}

// A Snapshotter stage under checkpointing must stay serial even when
// the pipeline asks for workers — an epoch snapshot is one consistent
// state, not W fragments.
func TestSnapshotterStaysSerialUnderCheckpoint(t *testing.T) {
	p := &Pipeline{
		Name:    "snap-serial",
		Stages:  []Placed{{Stage: &pCkptSum{}}},
		Ckpt:    NewCheckpointer(),
		Workers: 4,
	}
	if w := p.stageWorkers(0); w != 1 {
		t.Errorf("snapshotting stage got %d workers under checkpointing, want 1", w)
	}
	p.Ckpt = nil
	if w := p.stageWorkers(0); w != 4 {
		t.Errorf("snapshotting stage got %d workers without checkpointing, want 4", w)
	}
}

// pCkptSum is a snapshottable parallel stage used to exercise the
// serial fallback.
type pCkptSum struct{ ckptSumStage }

func (s *pCkptSum) NewWorker() Stage { return &pCkptSum{} }
func (s *pCkptSum) Stateless() bool  { return false }

func containsStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
