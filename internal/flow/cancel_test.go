package flow

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/columnar"
	"repro/internal/sim"
)

// Cancellation must unwind a pipeline no matter where it is blocked: a
// stage parked in an injected delay, the source parked on exhausted
// credits behind it, and the sink all exit, with no goroutine left
// inside the package and the context's own error surfaced.

func TestCancelUnblocksHungPipeline(t *testing.T) {
	assertNoFlowLeaks(t)
	hung := &SlowStage{Inner: &sumStage{}, Delay: time.Hour}
	p := &Pipeline{
		Name:   "cancel",
		Source: nBatchSource(50, 4),
		Stages: []Placed{
			{Stage: &passStage{name: "head"}},
			{Stage: hung},
		},
		Depth: 2, // the source blocks on credits behind the hung stage
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

func TestDeadlineUnblocksHungPipeline(t *testing.T) {
	assertNoFlowLeaks(t)
	hung := &SlowStage{Inner: &passStage{name: "work"}, Delay: time.Hour}
	p := &Pipeline{
		Name:   "deadline",
		Source: nBatchSource(10, 4),
		Stages: []Placed{{Stage: hung}},
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := p.Run(ctx, func(*columnar.Batch) error { return nil })
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded in chain", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("deadline took %s to unwind", elapsed)
	}
}

func TestPreCancelledContextRunsNothing(t *testing.T) {
	assertNoFlowLeaks(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	emitted := 0
	p := &Pipeline{
		Name: "precancel",
		Source: func(emit Emit) error {
			for i := 0; i < 100; i++ {
				if err := emit(intBatch(int64(i))); err != nil {
					return err
				}
				emitted++
			}
			return nil
		},
		Stages: []Placed{{Stage: &passStage{name: "p"}}},
	}
	_, err := p.Run(ctx, func(*columnar.Batch) error { return nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if emitted != 0 {
		t.Errorf("pre-cancelled run emitted %d batches, want 0", emitted)
	}
}

func TestCancelDuringCheckpointedRun(t *testing.T) {
	assertNoFlowLeaks(t)
	// Cancellation racing a marker in flight must still unwind cleanly;
	// whatever epochs completed stay recorded and consistent.
	ck := NewCheckpointer()
	hung := &SlowStage{
		Inner: &ckptSumStage{},
		Delay: time.Hour,
		Fire:  fireAfter(3),
	}
	p := &Pipeline{
		Name:   "cancel-ckpt",
		Source: markedSource(ck, 8, map[int]int{1: 2, 2: 6}),
		Stages: []Placed{{Stage: hung}},
		Ckpt:   ck,
	}
	ctx, cancel := context.WithCancel(context.Background())
	timer := time.AfterFunc(30*time.Millisecond, cancel)
	defer timer.Stop()
	_, err := p.Run(ctx, func(*columnar.Batch) error { return nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ep, ok := ck.Latest(); ok {
		// If epoch 1 completed before the hang, its cut must be intact.
		if snaps := ck.Snaps(ep); len(snaps) != 1 || snaps[0] == nil {
			t.Errorf("completed epoch %d has snaps %v", ep, snaps)
		}
	}
}

// fireAfter returns a SlowStage trigger that fires from the nth call on.
func fireAfter(n int) func() bool {
	calls := 0
	return func() bool {
		calls++
		return calls >= n
	}
}

// SlowStage wraps a stage with an injected processing delay on the run's
// clock, modelling a degraded or hung device for the watchdog and
// cancellation tests. When Fire is nil the delay applies to every batch;
// otherwise only when Fire reports true. The delay aborts cleanly on
// pipeline cancellation.
type SlowStage struct {
	Inner  Stage
	Delay  time.Duration
	Fire   func() bool
	cancel <-chan struct{}
	clk    *sim.Clock
}

// Name reports the wrapped stage's name.
func (s *SlowStage) Name() string { return s.Inner.Name() }

// SetCancel implements CancelAware.
func (s *SlowStage) SetCancel(c <-chan struct{}, clk *sim.Clock) { s.cancel, s.clk = c, clk }

// Process delays (cancellably), then forwards to the wrapped stage.
func (s *SlowStage) Process(b *columnar.Batch, emit Emit) error {
	if s.Delay > 0 && (s.Fire == nil || s.Fire()) {
		select {
		case <-s.clk.After(s.Delay):
		case <-s.cancel:
			return ErrCanceled
		}
	}
	return s.Inner.Process(b, emit)
}

// Flush forwards to the wrapped stage.
func (s *SlowStage) Flush(emit Emit) error { return s.Inner.Flush(emit) }

// SnapshotState forwards to the wrapped stage, so a slowed stateful
// stage still checkpoints. Wrapping a stateless stage snapshots nil.
func (s *SlowStage) SnapshotState() any {
	if sn, ok := s.Inner.(Snapshotter); ok {
		return sn.SnapshotState()
	}
	return nil
}

// RestoreState forwards to the wrapped stage.
func (s *SlowStage) RestoreState(state any) {
	if state == nil {
		return
	}
	if sn, ok := s.Inner.(Snapshotter); ok {
		sn.RestoreState(state)
	}
}
