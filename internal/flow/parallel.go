package flow

import (
	"sync"

	"repro/internal/columnar"
	"repro/internal/obs"
	"repro/internal/sim"
)

// ParallelStage is implemented by stages that can run as a per-device
// worker pool (morsel-driven parallelism). The runtime replicates the
// stage with NewWorker, feeds the replicas concurrently, and merges
// their outputs back into upstream arrival order before anything is
// sent downstream — so a parallel stage is observationally equivalent
// to the serial one: same output batches, same order, same metered
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

// stageWorkers decides how many workers run stage i. A stage runs serial
// unless it implements ParallelStage and the pipeline asks for workers;
// the pool is clamped to the hosting device's
// Parallelism. Snapshotting stages fall back to serial when the run
// checkpoints — an epoch snapshot must be one consistent state, not W
// fragments — and stages with restored state keep the single instance
// the state was installed into.
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

// workItem is one sequenced batch headed for a worker.
type workItem struct {
	seq int64
	b   *columnar.Batch
}

// stageResult is what a worker (or the dispatcher, for markers and
// dispatch-side faults) hands to the merger: the item's sequence number
// plus everything the serial loop would have done with it in place.
type stageResult struct {
	seq    int64
	outs   []*columnar.Batch
	marker bool
	epoch  int
	err    error
	input  obs.TapeInput
	traced bool
}

// runParallel executes the stage as a pool of r.w workers.
//
// Shape: the calling goroutine is the dispatcher — it is the port's
// single receiver, assigns arrival sequence numbers, and routes batches
// to workers (shared queue for stateless stages, round-robin for
// stateful ones). Workers process batches into buffered output slices
// and charge their device lane positionally (seq mod workers, not
// goroutine identity, so lane busy totals are schedule-independent). A
// merger goroutine reorders results by sequence number and is the only
// goroutine that touches the downstream port, the sink counters, and
// the stage tape — batches leave a parallel stage in exactly the order
// they arrived, checkpoint markers included.
//
// Credits return as soon as a worker finishes a batch; the reorder
// buffer this admits is bounded by the worker count plus channel
// buffers. Flushes run after all workers join, serially in worker
// order, so stateful replicas drain deterministically.
func (r *stageRun) runParallel() {
	p, st := r.p, r.st
	last := r.next == nil
	par := st.Stage.(ParallelStage)
	stateless := par.Stateless()
	// out is called only by the merger, then by the flush phase after
	// the merger has joined.
	out := Emit(r.out)

	r.install()

	insts := make([]Stage, r.w)
	for wi := range insts {
		insts[wi] = par.NewWorker()
		if ca, ok := insts[wi].(CancelAware); ok {
			ca.SetCancel(r.done, p.Services.Clock)
		}
	}

	results := make(chan stageResult, 2*r.w+4)
	var shared chan workItem
	var perw []chan workItem
	if stateless {
		shared = make(chan workItem, r.w)
	} else {
		perw = make([]chan workItem, r.w)
		for wi := range perw {
			perw[wi] = make(chan workItem, 2)
		}
	}

	var wwg sync.WaitGroup
	worker := func(wi int, ch <-chan workItem) {
		defer wwg.Done()
		for item := range ch {
			var cost sim.VTime
			if st.ChargeInput && st.Device != nil {
				cost = p.Account.ChargeLane(st.Device, st.Op, sim.Bytes(item.b.ByteSize()), int(item.seq%int64(r.w)))
			}
			sr := stageResult{seq: item.seq}
			procStart := p.Services.Clock.Now()
			r.busy[wi].Store(procStart.UnixNano())
			p.markBusy(1)
			sr.err = insts[wi].Process(item.b, func(ob *columnar.Batch) error {
				sr.outs = append(sr.outs, ob)
				return nil
			})
			p.markBusy(-1)
			r.busy[wi].Store(0)
			p.observeStage(st.Device, procStart)
			if r.ts != nil {
				sr.input = obs.TapeInput{
					Bytes: sim.Bytes(item.b.ByteSize()),
					Cost:  cost,
					Outs:  len(sr.outs),
				}
				sr.traced = true
			}
			r.in.CreditReturn()
			select {
			case results <- sr:
			case <-r.done:
				return
			}
		}
	}
	wwg.Add(r.w)
	for wi := 0; wi < r.w; wi++ {
		if stateless {
			go worker(wi, shared)
		} else {
			go worker(wi, perw[wi])
		}
	}

	var mwg sync.WaitGroup
	mwg.Add(1)
	go func() {
		defer mwg.Done()
		pend := make(map[int64]stageResult, r.w)
		var next int64
		failed := false
		handle := func(sr stageResult) {
			if failed {
				return
			}
			if sr.marker {
				// All pre-marker batches of the epoch have been merged and
				// forwarded, so this is the stage's consistent cut. Parallel
				// pools never host Snapshotter stages under checkpointing
				// (stageWorkers serializes those), so the snapshot is nil.
				p.Ckpt.stageSnap(r.i, sr.epoch, nil)
				if last {
					p.Ckpt.sinkComplete(sr.epoch, r.res.SinkBatches)
				} else if err := r.next.SendMarker(sr.epoch); err != nil {
					r.fail(err)
					failed = true
				}
				return
			}
			if sr.err != nil {
				r.failAt(sr.err)
				failed = true
				return
			}
			for _, ob := range sr.outs {
				if err := out(ob); err != nil {
					r.fail(err)
					failed = true
					return
				}
			}
			if sr.traced {
				r.ts.Inputs = append(r.ts.Inputs, sr.input)
			}
		}
		for {
			select {
			case sr, ok := <-results:
				if !ok {
					return
				}
				pend[sr.seq] = sr
				for {
					n, have := pend[next]
					if !have {
						break
					}
					delete(pend, next)
					next++
					handle(n)
				}
			case <-r.done:
				// Workers and dispatcher select on done when sending, so
				// abandoning the queue cannot block them.
				return
			}
		}
	}()

	// Dispatcher loop: single receiver on the input port.
	toMerger := func(sr stageResult) {
		select {
		case results <- sr:
		case <-r.done:
		}
	}
	var seq int64
	for {
		it, ok, err := r.in.recvItem()
		if err != nil {
			r.fail(err)
			break
		}
		if !ok {
			break
		}
		if it.b == nil {
			toMerger(stageResult{seq: seq, marker: true, epoch: it.epoch})
			seq++
			continue
		}
		r.res.BatchesIn[r.i]++
		// Fault checks stay on the dispatcher so the injector's seeded
		// sequence sees batches in arrival order, not worker order.
		if err := r.offline(); err != nil {
			r.in.CreditReturn()
			toMerger(stageResult{seq: seq, err: err})
			seq++
			continue
		}
		item := workItem{seq: seq, b: it.b}
		target := shared
		if !stateless {
			target = perw[seq%int64(r.w)]
		}
		seq++
		select {
		case target <- item:
		case <-r.done:
		}
	}
	if stateless {
		close(shared)
	} else {
		for _, ch := range perw {
			close(ch)
		}
	}
	wwg.Wait()
	close(results)
	mwg.Wait()

	// Flush phase: only on a clean end-of-stream (mirrors the serial
	// loop, which skips Flush after any failure).
	select {
	case <-r.done:
	default:
		flushed := 0
		for wi, inst := range insts {
			before := r.res.BatchesOut[r.i]
			r.busy[wi].Store(p.Services.Clock.Now().UnixNano())
			p.markBusy(1)
			ferr := inst.Flush(out)
			p.markBusy(-1)
			r.busy[wi].Store(0)
			if ferr != nil {
				r.fail(ferr)
				break
			}
			flushed += int(r.res.BatchesOut[r.i] - before)
		}
		if r.ts != nil {
			r.ts.FlushOuts = flushed
		}
	}
	r.in.flushCredits()
	if r.next != nil {
		r.next.Close()
	}
}
