package flow

import (
	"context"
	"testing"

	"repro/internal/columnar"
)

// ckptSumStage forwards every batch unchanged while accumulating the
// running sum of its values — stateful (and snapshottable) yet
// streaming, so sink-batch watermarks advance mid-stream.
type ckptSumStage struct{ sum int64 }

func (s *ckptSumStage) Name() string { return "ckptsum" }
func (s *ckptSumStage) Process(b *columnar.Batch, emit Emit) error {
	for _, v := range b.Col(0).Int64s() {
		s.sum += v
	}
	return emit(b)
}
func (s *ckptSumStage) Flush(emit Emit) error  { return emit(intBatch(s.sum)) }
func (s *ckptSumStage) SnapshotState() any     { return s.sum }
func (s *ckptSumStage) RestoreState(state any) { s.sum = state.(int64) }

// markedSource emits batches carrying the single values 1..n, marking
// checkpoint epoch e after batch marks[e] (a map from epoch to batch
// count); the recorded resume watermark is the batch count itself.
func markedSource(ck *Checkpointer, n int, marks map[int]int) Source {
	return func(emit Emit) error {
		for i := 1; i <= n; i++ {
			if err := emit(intBatch(int64(i))); err != nil {
				return err
			}
			for e := 1; e <= len(marks); e++ {
				if marks[e] == i {
					if err := ck.Mark(e, i); err != nil {
						return err
					}
				}
			}
		}
		return nil
	}
}

func TestCheckpointEpochsRecordConsistentCuts(t *testing.T) {
	assertNoFlowLeaks(t)
	ck := NewCheckpointer()
	p := &Pipeline{
		Name:   "ckpt",
		Source: markedSource(ck, 6, map[int]int{1: 2, 2: 4}),
		Stages: []Placed{
			{Stage: &ckptSumStage{}},
			{Stage: &passStage{name: "tail"}},
		},
		Ckpt: ck,
	}
	var sink []int64
	res, err := p.Run(context.Background(), func(b *columnar.Batch) error {
		sink = append(sink, b.Col(0).Int64s()[0])
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// 6 forwarded batches plus the flushed sum.
	if len(sink) != 7 || sink[6] != 21 {
		t.Fatalf("sink = %v, want 1..6 then 21", sink)
	}
	if got := ck.Completed(); got != 2 {
		t.Errorf("Completed = %d, want 2", got)
	}
	if ep, ok := ck.Latest(); !ok || ep != 2 {
		t.Errorf("Latest = %d,%v, want 2,true", ep, ok)
	}
	if w := ck.Resume(1); w != 2 {
		t.Errorf("Resume(1) = %v, want 2", w)
	}
	if w := ck.Resume(2); w != 4 {
		t.Errorf("Resume(2) = %v, want 4", w)
	}
	// The marker trails every batch of its epoch: stage snapshots are the
	// sums at the watermark; the stateless tail records nil.
	if snaps := ck.Snaps(1); len(snaps) != 2 || snaps[0] != int64(3) || snaps[1] != nil {
		t.Errorf("Snaps(1) = %v, want [3 nil]", snaps)
	}
	if snaps := ck.Snaps(2); snaps[0] != int64(10) {
		t.Errorf("Snaps(2)[0] = %v, want 10", snaps[0])
	}
	// Sink watermarks: batches delivered when the marker fell off the
	// last stage.
	if n := ck.SinkBatches(1); n != 2 {
		t.Errorf("SinkBatches(1) = %d, want 2", n)
	}
	if n := ck.SinkBatches(2); n != 4 {
		t.Errorf("SinkBatches(2) = %d, want 4", n)
	}
	// Markers ride every port as punctuation, not data, and bypass
	// credit accounting.
	for i, ps := range res.Ports {
		if ps.MarkerMessages != 2 {
			t.Errorf("port %d carried %d markers, want 2", i, ps.MarkerMessages)
		}
	}
	if res.Ports[0].DataMessages != 6 {
		t.Errorf("port 0 data messages = %d, want 6", res.Ports[0].DataMessages)
	}
}

func TestRestoreResumesFromCheckpoint(t *testing.T) {
	assertNoFlowLeaks(t)
	// Baseline: a full run with epoch 1 marked after batch 2.
	ck := NewCheckpointer()
	base := &Pipeline{
		Name:   "ckpt-base",
		Source: markedSource(ck, 6, map[int]int{1: 2}),
		Stages: []Placed{{Stage: &ckptSumStage{}}},
		Ckpt:   ck,
	}
	var baseLast int64
	if _, err := base.Run(context.Background(), func(b *columnar.Batch) error {
		baseLast = b.Col(0).Int64s()[0]
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if baseLast != 21 {
		t.Fatalf("baseline sum = %d, want 21", baseLast)
	}

	// Restart: fresh stages, epoch-1 snapshots reinstalled, and the
	// source resuming at the recorded watermark (batch 3). The flushed
	// sum must equal the uninterrupted run's.
	resume := ck.Resume(1).(int)
	restarted := &Pipeline{
		Name: "ckpt-restart",
		Source: func(emit Emit) error {
			for i := resume + 1; i <= 6; i++ {
				if err := emit(intBatch(int64(i))); err != nil {
					return err
				}
			}
			return nil
		},
		Stages:  []Placed{{Stage: &ckptSumStage{}}},
		Restore: &Restore{Epoch: 1, Snaps: ck.Snaps(1)},
	}
	var last int64
	if _, err := restarted.Run(context.Background(), func(b *columnar.Batch) error {
		last = b.Col(0).Int64s()[0]
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if last != baseLast {
		t.Errorf("restarted sum = %d, want %d", last, baseLast)
	}
}

func TestRestoreValidation(t *testing.T) {
	assertNoFlowLeaks(t)
	// A restore whose snapshot count does not match the stage chain is a
	// wiring bug and must fail before any goroutine starts.
	p := &Pipeline{
		Name:    "ckpt-bad",
		Source:  nBatchSource(1, 1),
		Stages:  []Placed{{Stage: &ckptSumStage{}}},
		Restore: &Restore{Epoch: 1, Snaps: []any{int64(1), int64(2)}},
	}
	if _, err := p.Run(context.Background(), func(*columnar.Batch) error { return nil }); err == nil {
		t.Error("mismatched restore accepted")
	}
	// State for a stage that cannot restore is equally fatal.
	p2 := &Pipeline{
		Name:    "ckpt-bad2",
		Source:  nBatchSource(1, 1),
		Stages:  []Placed{{Stage: &passStage{name: "p"}}},
		Restore: &Restore{Epoch: 1, Snaps: []any{int64(1)}},
	}
	if _, err := p2.Run(context.Background(), func(*columnar.Batch) error { return nil }); err == nil {
		t.Error("restore into non-snapshotter accepted")
	}
}

func TestCheckpointerDetachedAndNil(t *testing.T) {
	// Marking a checkpointer that is not attached to a running pipeline
	// is an error; every method on a nil checkpointer is a safe no-op.
	ck := NewCheckpointer()
	if err := ck.Mark(1, 0); err == nil {
		t.Error("detached Mark succeeded")
	}
	var none *Checkpointer
	if err := none.Mark(1, 0); err != nil {
		t.Errorf("nil Mark = %v", err)
	}
	if _, ok := none.Latest(); ok {
		t.Error("nil checkpointer has a latest epoch")
	}
	if none.Completed() != 0 || none.Resume(1) != nil || none.Snaps(1) != nil || none.SinkBatches(1) != 0 {
		t.Error("nil checkpointer returned non-zero state")
	}
}
