package flow

import (
	"sync"

	"repro/internal/columnar"
	"repro/internal/obs"
)

// ParallelStage is implemented by stages that can run as a per-device
// worker pool (morsel-driven parallelism). The runtime replicates the
// stage with NewWorker, feeds the replicas concurrently, and merges
// their outputs back into upstream arrival order before anything is
// sent downstream — so a pool is observationally equivalent to the
// stage at width 1: same output batches, same order, same metered
// totals. Only the makespan changes, via per-lane busy accounting.
type ParallelStage interface {
	Stage
	// NewWorker returns a fresh worker-local stage instance. Instances
	// must not share mutable state with each other or with the receiver;
	// read-only state (predicates, hash tables being probed) may be
	// shared.
	NewWorker() Stage
	// Stateless reports whether Process retains no state across batches.
	// Stateless stages are fed from a shared queue — an idle worker
	// steals the next batch, whichever it is. Stateful stages get a
	// deterministic round-robin share (batch seq mod workers) so each
	// replica's retained state, and everything it later flushes, is
	// independent of goroutine scheduling.
	Stateless() bool
}

// stageWorkers decides stage i's width. A stage runs at width 1 unless
// it implements ParallelStage and the pipeline asks for workers; the
// pool is clamped to the hosting device's Parallelism. Snapshotting
// stages stay at width 1 when the run checkpoints — an epoch snapshot
// must be one consistent state, not W fragments — and stages with
// restored state keep the single instance the state was installed into.
func (p *Pipeline) stageWorkers(i int) int {
	st := p.Stages[i]
	if _, ok := st.Stage.(ParallelStage); !ok {
		return 1
	}
	w := p.Workers
	if w <= 1 {
		return 1
	}
	if st.Device != nil && st.Device.Units() < w {
		w = st.Device.Units()
	}
	if _, snap := st.Stage.(Snapshotter); snap && p.Ckpt != nil {
		return 1
	}
	if p.Restore != nil && i < len(p.Restore.Snaps) && p.Restore.Snaps[i] != nil {
		return 1
	}
	return w
}

// stageItem is one item in arrival order: a batch on its way to a pooled
// worker, or, as settle takes it, a processed batch (its held outputs and
// tape input, or the error it failed with), a fault found before
// dispatch, or (b nil) a checkpoint marker.
type stageItem struct {
	seq   int64
	b     *columnar.Batch
	outs  []*columnar.Batch
	epoch int
	err   error
	input obs.TapeInput
}

// pool is a stage's width-N machinery between the receiving goroutine
// and settle. Stateless stages feed one shared queue — an idle worker
// steals the next batch, whichever it is; stateful ones feed worker
// seq mod width, so each replica's state is schedule-independent. Each
// worker runs worker.process and hands its result to a merger goroutine,
// which settles results in sequence order — batches leave a pool in
// exactly the order they arrived, checkpoint markers included. Credits
// return as soon as a worker finishes a batch; the reorder buffer this
// admits is bounded by the worker count plus channel buffers.
type pool struct {
	r       *stageRun
	queues  []chan stageItem
	results chan stageItem
	wwg     sync.WaitGroup
	mwg     sync.WaitGroup
}

// startPool starts the stage's workers and its merger as r.pool.
func (r *stageRun) startPool() {
	// About one queued batch and two results per worker keep the
	// receiver, the workers and the merger from waiting on each other.
	width := len(r.workers)
	queues, depth := width, 2 // stateful: one queue per worker
	if r.st.Stage.(ParallelStage).Stateless() {
		queues, depth = 1, width
	}
	pl := &pool{r: r, queues: make([]chan stageItem, queues), results: make(chan stageItem, 2*width+4)}
	for i := range pl.queues {
		pl.queues[i] = make(chan stageItem, depth)
	}
	r.pool = pl
	pl.wwg.Add(width)
	for wi := range r.workers {
		w := &r.workers[wi]
		go func(q <-chan stageItem) {
			defer pl.wwg.Done()
			for si := range q {
				si.input, si.err = w.process(si.b, si.seq)
				si.outs, w.held = w.held, nil
				if !pl.merge(si) {
					return
				}
			}
		}(pl.queues[wi%len(pl.queues)])
	}
	pl.mwg.Add(1)
	go func() {
		defer pl.mwg.Done()
		pend := make(map[int64]stageItem, width)
		var next int64
		ok := true
		for {
			select {
			case si, open := <-pl.results:
				if !open {
					return
				}
				pend[si.seq] = si
				for n, have := pend[next]; have; n, have = pend[next] {
					delete(pend, next)
					next++
					ok = ok && r.settle(&n)
				}
			case <-r.in.done:
				// Workers and the receiver select on done when sending, so
				// abandoning the queue cannot block them.
				return
			}
		}
	}()
}

// dispatch queues a batch for the worker that takes it.
func (pl *pool) dispatch(si stageItem) {
	select {
	case pl.queues[si.seq%int64(len(pl.queues))] <- si:
	case <-pl.r.in.done:
	}
}

// merge hands a result to the merger; false once the run is torn down.
func (pl *pool) merge(si stageItem) bool {
	select {
	case pl.results <- si:
		return true
	case <-pl.r.in.done:
		return false
	}
}

// stop closes the queues, joins the workers and the merger, and clears
// r.pool, so the flush phase's outputs go straight to out.
func (pl *pool) stop() {
	for _, q := range pl.queues {
		close(q)
	}
	pl.wwg.Wait()
	close(pl.results)
	pl.mwg.Wait()
	pl.r.pool = nil
}
