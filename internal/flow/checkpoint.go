package flow

import (
	"fmt"
	"sync"
)

// Snapshotter is implemented by stages whose state must survive a
// stage-level partial restart. SnapshotState returns a deep copy of the
// stage's accumulated state at a checkpoint marker; RestoreState
// reinstalls such a copy into a freshly built stage. RestoreState must
// not alias the snapshot it is given (copy again), so the same epoch can
// seed several restart attempts. Stateless stages simply don't implement
// the interface and restart from nothing.
type Snapshotter interface {
	SnapshotState() any
	RestoreState(any)
}

// Restore tells a pipeline run to start from a completed checkpoint:
// per-stage snapshots taken at the epoch's marker. The source must
// separately resume from the epoch's watermark (see Checkpointer.Resume).
type Restore struct {
	Epoch int
	Snaps []any
}

// Checkpointer records stage-boundary checkpoints of one pipeline run.
//
// The source calls Mark(epoch, resume) at a convenient watermark (the
// storage scan does so every few segments); the runtime injects a marker
// into the stream. Markers ride the data FIFO, so when one reaches a
// stage every batch of its epoch has already been processed there — each
// stage snapshots its state at marker receipt, and the set of snapshots
// for one epoch is a consistent cut of the whole linear pipeline
// (Chandy–Lamport without the hard parts). When the marker falls off the
// last stage the epoch is complete: everything at or before the
// watermark is durable at the sink and never needs replaying.
//
// A Checkpointer serves one Run; build a fresh one per attempt.
type Checkpointer struct {
	mu     sync.Mutex
	stages int
	inject func(epoch int) error
	epochs map[int]*ckptEpoch
	latest int
	done   int
}

// ckptEpoch is the recorded state of one marked epoch.
type ckptEpoch struct {
	resume      any
	snaps       []any
	sinkBatches int64
	complete    bool
}

// NewCheckpointer returns an empty Checkpointer ready to attach to a
// Pipeline via its Ckpt field.
func NewCheckpointer() *Checkpointer {
	return &Checkpointer{epochs: make(map[int]*ckptEpoch)}
}

// bind attaches the checkpointer to a starting run.
func (c *Checkpointer) bind(stages int, inject func(int) error) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.stages = stages
	c.inject = inject
	c.mu.Unlock()
}

// Mark opens checkpoint epoch `epoch` at the source: resume is the
// opaque watermark (e.g. the next storage segment index) a restart
// resumes the source from, and a marker is injected into the stream
// behind every batch of the epoch. Call only from inside the pipeline's
// Source, on the source goroutine; epochs must be marked in increasing
// order.
func (c *Checkpointer) Mark(epoch int, resume any) error {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	inject := c.inject
	if inject == nil {
		c.mu.Unlock()
		return fmt.Errorf("flow: checkpointer is not attached to a running pipeline")
	}
	c.epochLocked(epoch).resume = resume
	c.mu.Unlock()
	// The marker send can block on back-pressure; never under the lock.
	return inject(epoch)
}

// epochLocked returns (creating if needed) the epoch record.
func (c *Checkpointer) epochLocked(epoch int) *ckptEpoch {
	e := c.epochs[epoch]
	if e == nil {
		e = &ckptEpoch{}
		c.epochs[epoch] = e
	}
	return e
}

// stageSnap records stage i's state snapshot at the epoch's marker.
func (c *Checkpointer) stageSnap(i, epoch int, snap any) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.epochLocked(epoch)
	if e.snaps == nil {
		e.snaps = make([]any, c.stages)
	}
	e.snaps[i] = snap
}

// sinkComplete marks the epoch durable: its marker fell off the last
// stage with sink batches delivered so far.
func (c *Checkpointer) sinkComplete(epoch int, sink int64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.epochLocked(epoch)
	e.sinkBatches = sink
	e.complete = true
	if epoch > c.latest {
		c.latest = epoch
	}
	c.done++
}

// Latest reports the newest completed epoch, if any.
func (c *Checkpointer) Latest() (int, bool) {
	if c == nil {
		return 0, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.latest == 0 {
		return 0, false
	}
	return c.latest, true
}

// Completed reports how many epochs completed during the run.
func (c *Checkpointer) Completed() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.done
}

// Resume returns the source watermark recorded for a completed epoch.
func (c *Checkpointer) Resume(epoch int) any {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if e := c.epochs[epoch]; e != nil {
		return e.resume
	}
	return nil
}

// Snaps returns the per-stage snapshots recorded for a completed epoch.
// Entries are nil for stateless stages.
func (c *Checkpointer) Snaps(epoch int) []any {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if e := c.epochs[epoch]; e != nil {
		return e.snaps
	}
	return nil
}

// SinkBatches reports how many sink batches had been delivered when the
// epoch completed; a restart truncates the delivered output back to it.
func (c *Checkpointer) SinkBatches(epoch int) int64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if e := c.epochs[epoch]; e != nil && e.complete {
		return e.sinkBatches
	}
	return 0
}
