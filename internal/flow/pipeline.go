package flow

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/columnar"
	"repro/internal/fabric"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/obs/metrics"
	"repro/internal/sim"
	"repro/internal/wiring"
)

// Emit delivers one batch downstream. It is only valid for the duration
// of the Process or Flush call it was passed to.
type Emit func(*columnar.Batch) error

// Stage is one push-based operator. A stage is driven by the runtime:
// Process is called once per input batch and may emit any number of
// output batches; Flush is called once at end-of-stream to drain
// retained state.
type Stage interface {
	Name() string
	Process(b *columnar.Batch, emit Emit) error
	Flush(emit Emit) error
}

// Source produces the pipeline's input batches (e.g. a storage scan).
// It must stop and return promptly when emit returns an error.
type Source func(emit Emit) error

// Placed binds a stage to the device that hosts it. The runtime charges
// the device Op per input byte (when ChargeInput) and one kernel setup
// when the stream starts, modelling Section 7.2's register-programmed
// accelerators.
type Placed struct {
	Stage       Stage
	Device      *fabric.Device
	Op          fabric.OpClass
	ChargeInput bool
}

// Pipeline is a linear chain: Source -> stage[0] -> ... -> stage[n-1] ->
// sink. Ports between consecutive elements carry the traffic across the
// fabric paths given in Paths.
type Pipeline struct {
	Name   string
	Source Source
	Stages []Placed
	// Paths[i] lists the links crossed between element i-1 and element
	// i's device (Paths[0] = source->stage0). Its length must equal
	// len(Stages); missing entries mean on-device handoff.
	Paths [][]*fabric.Link
	// Depth is the per-port queue depth (credits); default 8.
	Depth int
	// Workers asks each ParallelStage to run as a pool of this many
	// workers (morsel-driven parallelism), clamped per stage to the
	// hosting device's Parallelism. 0 or 1 runs every stage at width 1.
	// A pool keeps width-1 semantics — identical output batches in
	// identical order, identical metered totals — via sequence-numbered
	// dispatch and an ordered merge; see ParallelStage.
	Workers int
	// CreditBatch is how many credits accumulate before one return
	// message; default Depth/2.
	CreditBatch int
	// StageTimeout bounds how long one stage may hold a batch (Process or
	// Flush) before the watchdog cancels the run with a StageError
	// wrapping ErrStageTimeout; 0 disables the watchdog.
	StageTimeout time.Duration
	// Services is the wiring point of the engine the run belongs to; nil
	// (a pipeline built outside one) or a nil member is off. The run
	// reads four members where it uses them. Faults is asked once per
	// batch per stage whether the hosting device drops its kernel
	// (faults.DeviceOffline): a fired fault marks the device offline and
	// fails the stage, which is how E19 kills devices mid-query. It is
	// also asked once per data batch per path link whether the link flaps
	// (faults.LinkFlap): a fired fault fails the Send with a LinkError.
	// Resilience.Health observes every batch's wall-clock Process latency
	// keyed "stage/<device>" — real time, not virtual, so an injected
	// slow device shows up even though its metered costs are unchanged.
	// Metrics receives flow.credit.stalls (Sends that found the credit
	// window empty), flow.workers.busy (workers holding a batch; one
	// atomic add per busy/idle flip) and flow.workers.provisioned. Clock
	// stamps when each worker began holding a batch, times the Process
	// latencies, paces the watchdog and is handed to CancelAware stages.
	Services *wiring.Services
	// Trace, when non-nil, makes the run record a causal tape (batch
	// costs, emission counts, per-link transfer costs) and replay it into
	// a deterministic virtual-time span timeline after the stream drains.
	// Nil disables all recording at zero per-batch cost.
	Trace *obs.Trace
	// Clock is the virtual clock the source's emissions are stamped
	// with; the storage scan advances it as it charges media and decode
	// work. Nil freezes the source at virtual time 0 (all batches ready
	// immediately).
	Clock *obs.VClock
	// SourceTrack names the device feeding the source, for attributing
	// source-side credit stalls in the trace.
	SourceTrack string
	// Ckpt, when non-nil, records stage-boundary checkpoints: the source
	// calls Ckpt.Mark at its watermarks and the runtime punctuates the
	// stream with markers each stage snapshots at. Build a fresh
	// Checkpointer per run.
	Ckpt *Checkpointer
	// Restore, when non-nil, reinstalls a completed epoch's per-stage
	// snapshots into the (freshly built) stages before the run starts.
	// The source must separately resume from the epoch's watermark.
	Restore *Restore
	// Account, when non-nil, is the query's account: every stage charge
	// on a device and every batch, credit and marker crossing a link is
	// recorded on it. Nil charges the meters only.
	Account *fabric.Account

	// occ is the worker-occupancy gauge, resolved once per Run.
	occ *metrics.Gauge
}

// observeStage feeds one batch's stage latency into the health tracker.
func (p *Pipeline) observeStage(dev *fabric.Device, start time.Time) {
	pol := p.Services.Resilience
	if pol == nil || pol.Health == nil || dev == nil {
		return
	}
	pol.Health.Observe("stage/"+dev.Name, p.Services.Clock.Since(start))
}

// Result reports what a pipeline run did.
type Result struct {
	Ports       []PortStats
	BatchesIn   []int64 // per stage
	BatchesOut  []int64 // per stage
	SinkBatches int64
	SinkRows    int64
	SinkBytes   sim.Bytes
}

// toSink is the sink step behind the last stage, or the source when there
// is none: the sink is a dense boundary, and r counts what crossed it.
func (r *Result) toSink(sink Emit, b *columnar.Batch) error {
	b = b.Compact()
	r.SinkBatches++
	r.SinkRows += int64(b.NumRows())
	r.SinkBytes += sim.Bytes(b.ByteSize())
	return sink(b)
}

// TotalDataMessages sums data messages over all ports.
func (r Result) TotalDataMessages() int64 {
	var n int64
	for _, p := range r.Ports {
		n += p.DataMessages
	}
	return n
}

// TotalCreditMessages sums credit messages over all ports.
func (r Result) TotalCreditMessages() int64 {
	var n int64
	for _, p := range r.Ports {
		n += p.CreditMessages
	}
	return n
}

// Run executes the pipeline, delivering final batches to sink (called
// from a single goroutine). It returns when every stage has flushed, any
// element failed, or ctx was cancelled — cancellation closes the done
// channel, so blocked port sends and receives unwind, credits drain, and
// every goroutine exits before Run returns.
func (p *Pipeline) Run(ctx context.Context, sink Emit) (Result, error) {
	var res Result
	if ctx == nil {
		ctx = context.Background()
	}
	if p.Source == nil {
		return res, fmt.Errorf("flow: pipeline %q has no source", p.Name)
	}
	if p.Services == nil {
		p.Services = new(wiring.Services)
	}
	if len(p.Paths) != 0 && len(p.Paths) != len(p.Stages) {
		return res, fmt.Errorf("flow: pipeline %q has %d paths for %d stages", p.Name, len(p.Paths), len(p.Stages))
	}
	if p.Restore != nil {
		if len(p.Restore.Snaps) != len(p.Stages) {
			return res, fmt.Errorf("flow: pipeline %q restore carries %d snapshots for %d stages",
				p.Name, len(p.Restore.Snaps), len(p.Stages))
		}
		for i, st := range p.Stages {
			snap := p.Restore.Snaps[i]
			if snap == nil {
				continue
			}
			sn, ok := st.Stage.(Snapshotter)
			if !ok {
				return res, fmt.Errorf("flow: pipeline %q restore has state for stage %q, which cannot restore",
					p.Name, st.Stage.Name())
			}
			sn.RestoreState(snap)
		}
	}
	// A done context runs nothing; the watcher below may be scheduled late.
	if err := ctx.Err(); err != nil {
		return res, err
	}
	depth := p.Depth
	if depth <= 0 {
		depth = 8
	}
	creditBatch := p.CreditBatch
	if creditBatch <= 0 {
		creditBatch = depth / 2
	}

	done := make(chan struct{})
	var cancelOnce sync.Once
	var errOnce sync.Once
	var firstErr error
	fail := func(err error) {
		if err == nil || err == ErrCanceled {
			return
		}
		errOnce.Do(func() { firstErr = err })
		cancelOnce.Do(func() { close(done) })
	}

	// When tracing, each run records a causal tape: stage tapes are
	// written only by their own goroutines (Inputs by the receiver,
	// Xfers by the single upstream sender), so recording takes no locks.
	var tape *obs.Tape
	var stageTapes []*obs.StageTape
	if p.Trace.Enabled() {
		tape = obs.NewTape(depth)
		tape.Source.Track = p.SourceTrack
		stageTapes = make([]*obs.StageTape, len(p.Stages))
		for i, st := range p.Stages {
			track := ""
			if st.Device != nil {
				track = st.Device.Name
			}
			stageTapes[i] = &obs.StageTape{Name: st.Stage.Name(), Track: track, FaultInput: -1}
		}
		tape.Stages = stageTapes
	}

	ports := make([]*Port, len(p.Stages))
	for i := range p.Stages {
		var path []*fabric.Link
		if len(p.Paths) > 0 {
			path = p.Paths[i]
		}
		var pt *obs.StageTape
		if stageTapes != nil {
			pt = stageTapes[i]
		}
		ports[i] = newPort(fmt.Sprintf("%s.port%d", p.Name, i), path, depth, creditBatch, done, pt)
		ports[i].acct, ports[i].svc = p.Account, p.Services
		ports[i].stallCtr = p.Services.Metrics.Counter("flow.credit.stalls")
	}
	p.occ = p.Services.Metrics.Gauge("flow.workers.busy")

	res.BatchesIn = make([]int64, len(p.Stages))
	res.BatchesOut = make([]int64, len(p.Stages))

	// Context watcher: a deadline or cancellation fails the run, which
	// closes done and unwinds every blocked port operation.
	ctxStop := make(chan struct{})
	var ctxWG sync.WaitGroup
	if ctx.Done() != nil {
		ctxWG.Add(1)
		go func() {
			defer ctxWG.Done()
			select {
			case <-ctx.Done():
				fail(ctx.Err())
			case <-ctxStop:
			case <-done:
			}
		}()
	}

	// Checkpointing: the source's Mark calls inject an epoch marker into
	// the stream (or, with no stages, complete the epoch at the sink
	// directly — the source goroutine is the sink writer there).
	if p.Ckpt != nil {
		p.Ckpt.bind(len(p.Stages), func(epoch int) error {
			if len(ports) == 0 {
				p.Ckpt.sinkComplete(epoch, res.SinkBatches)
				return nil
			}
			return ports[0].SendMarker(epoch)
		})
	}

	// busySince[i][w] is the clock's nanosecond at which stage i's
	// worker w last began holding a batch (Process or Flush), 0 when
	// idle. The watchdog reads it to find hung stages. Its length is
	// stage i's width: how many copies of the stage run.
	busySince := make([][]atomic.Int64, len(p.Stages))
	provisioned := 0
	for i := range p.Stages {
		busySince[i] = make([]atomic.Int64, p.stageWorkers(i))
		provisioned += len(busySince[i])
	}
	if reg := p.Services.Metrics; reg != nil {
		pg := reg.Gauge("flow.workers.provisioned")
		pg.Add(float64(provisioned))
		defer pg.Add(-float64(provisioned))
	}

	var wg sync.WaitGroup

	// Source goroutine.
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := p.Source(func(b *columnar.Batch) error {
			if tape != nil {
				tape.Source.Emits = append(tape.Source.Emits,
					obs.Emission{At: p.Clock.Now(), Bytes: sim.Bytes(b.ByteSize())})
			}
			if len(ports) == 0 {
				return res.toSink(sink, b)
			}
			return ports[0].Send(b)
		}); err != nil {
			fail(err)
		}
		if len(ports) > 0 {
			ports[0].Close()
		}
	}()

	// Stage goroutines, one per stage at every width.
	for i := range p.Stages {
		r := &stageRun{
			p: p, i: i, st: p.Stages[i], w: len(busySince[i]),
			in: ports[i], sink: sink, res: &res,
			fail: fail, done: done, busy: busySince[i],
		}
		if stageTapes != nil {
			r.ts = stageTapes[i]
		}
		if i < len(p.Stages)-1 {
			r.next = ports[i+1]
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.run()
		}()
	}

	// Watchdog: periodically scan for a stage that has held one batch
	// past StageTimeout and cancel the run, blaming the most-downstream
	// busy stage — upstream stages block in Send behind a hung consumer,
	// so the furthest-downstream one is the culprit.
	var watchWG sync.WaitGroup
	watchStop := make(chan struct{})
	if p.StageTimeout > 0 && len(p.Stages) > 0 {
		watchWG.Add(1)
		go func() {
			defer watchWG.Done()
			clk := p.Services.Clock
			tick := p.StageTimeout / 4
			if tick < time.Millisecond {
				tick = time.Millisecond
			}
			for {
				select {
				case <-watchStop:
					return
				case <-done:
					return
				case <-clk.After(tick):
					now := clk.Now().UnixNano()
					for i := len(p.Stages) - 1; i >= 0; i-- {
						hung := false
						for w := range busySince[i] {
							since := busySince[i][w].Load()
							if since != 0 && now-since >= int64(p.StageTimeout) {
								hung = true
								break
							}
						}
						if !hung {
							continue
						}
						st := p.Stages[i]
						dev := ""
						if st.Device != nil {
							dev = st.Device.Name
						}
						fail(&StageError{
							Pipeline: p.Name, Stage: st.Stage.Name(),
							Device: dev, Err: ErrStageTimeout,
						})
						return
					}
				}
			}
		}()
	}

	wg.Wait()
	close(watchStop)
	watchWG.Wait()
	close(ctxStop)
	ctxWG.Wait()
	for _, port := range ports {
		res.Ports = append(res.Ports, port.Stats())
	}
	// The tape is complete (all writers joined); replay it into the
	// trace's span timeline. Replay is deterministic in the tape, and the
	// tape depends only on batch order and sizes — not on how the host
	// scheduled the goroutines above.
	if tape != nil {
		tape.Replay(p.Trace)
	}
	return res, firstErr
}

// stageRun is one stage's share of a Run: the ports on either side of
// it, the copies of the stage at work, the counters and tape it writes,
// and the run's failure plumbing.
type stageRun struct {
	p       *Pipeline
	i       int
	st      Placed
	w       int // width: how many copies of the stage run
	workers []worker
	one     [1]worker // backs workers at width 1, so it costs no allocation
	pool    *pool     // set while a pool's merger runs
	in      *Port
	next    *Port // nil when this is the last stage
	sink    Emit
	res     *Result
	ts      *obs.StageTape
	fail    func(error)
	done    <-chan struct{}
	busy    []atomic.Int64 // per worker, for the watchdog
}

// worker is one copy of the stage at work: the placed stage itself at
// width 1 (restored state and checkpoint snapshots live there), a
// NewWorker replica in a pool.
type worker struct {
	r    *stageRun
	inst Stage
	slot int  // index into r.busy
	emit Emit // take, bound once
	outs int  // what the batch in hand emitted
	held []*columnar.Batch
}

// take is every worker's Emit. While a pool's merger runs, a worker
// holds its outputs for it to send in order; otherwise — at width 1, and
// in every flush — they go straight to out.
func (w *worker) take(b *columnar.Batch) error {
	w.outs++
	if w.r.pool == nil {
		return w.r.out(b)
	}
	w.held = append(w.held, b)
	return nil
}

// begin marks the worker as holding a batch, for the watchdog and the
// fleet occupancy gauge, and returns when it began; end clears the mark.
func (w *worker) begin() time.Time {
	now := w.r.p.Services.Clock.Now()
	w.r.busy[w.slot].Store(now.UnixNano())
	w.r.p.occ.Add(1)
	return now
}

func (w *worker) end() {
	w.r.p.occ.Add(-1)
	w.r.busy[w.slot].Store(0)
}

// process is the per-batch body at every width: charge the device, run
// Process under the busy marks, observe its latency and hand the credit
// back. A pooled worker charges its positional lane (seq mod width, not
// goroutine identity, so lane totals are schedule-independent); width 1
// charges without a lane, because a stage at width 1 can share its
// device with a pool whose lane 0 is busy too. It returns the batch's
// tape input.
func (w *worker) process(b *columnar.Batch, seq int64) (obs.TapeInput, error) {
	r, st := w.r, w.r.st
	var in obs.TapeInput
	charge := st.ChargeInput && st.Device != nil
	if charge || r.ts != nil {
		in.Bytes = sim.Bytes(b.ByteSize())
	}
	if charge && r.w == 1 {
		in.Cost = r.p.Account.Charge(st.Device, st.Op, in.Bytes)
	} else if charge {
		in.Cost = r.p.Account.ChargeLane(st.Device, st.Op, in.Bytes, int(seq%int64(r.w)))
	}
	w.outs = 0
	start := w.begin()
	err := w.inst.Process(b, w.emit)
	w.end()
	r.p.observeStage(st.Device, start)
	r.in.CreditReturn()
	in.Outs = w.outs
	return in, err
}

// out delivers one batch downstream: to the next stage's port, or from
// the last stage into the sink. Only one goroutine per stage calls it —
// the stage's own at width 1, the merger in a pool — and then the flush
// phase.
func (r *stageRun) out(b *columnar.Batch) error {
	r.res.BatchesOut[r.i]++
	if r.next != nil {
		return r.next.Send(b)
	}
	return r.res.toSink(r.sink, b)
}

// offline reports a StageError when the hosting device is (or, via an
// injected fault, just went) offline. Links through the device still
// forward — only hosted computation dies.
func (r *stageRun) offline() error {
	dev := r.st.Device
	if dev == nil {
		return nil
	}
	if inj := r.p.Services.Faults; inj != nil && inj.Fire(faults.DeviceOffline, dev.Name) {
		dev.SetOffline(true)
	}
	if dev.IsOffline() {
		return &StageError{
			Pipeline: r.p.Name, Stage: r.st.Stage.Name(),
			Device: dev.Name, Err: fabric.ErrDeviceOffline,
		}
	}
	return nil
}

// failAt fails the run with err, marking on the tape where the stage
// died so the replayed timeline carries the annotation. A stage that
// only saw the run torn down elsewhere (ErrCanceled) is not marked.
func (r *stageRun) failAt(err error) {
	if r.ts != nil && err != ErrCanceled {
		r.ts.FaultInput = len(r.ts.Inputs)
		r.ts.FaultDetail = err.Error()
	}
	r.fail(err)
}

// run drives the stage. Its goroutine is the input port's single
// receiver and numbers every item in arrival order. At width 1 it runs
// each batch through the placed stage itself, whose outputs go straight
// to out: no other goroutine, channel or map, and no allocation per
// batch. At width N it hands batches to a pool of NewWorker replicas and
// a merger settles their results in sequence order (see pool). The
// per-batch body, the in-order step and the flush phase are the same
// code at every width.
func (r *stageRun) run() {
	// Prologue: a stage whose host is already down fails the run;
	// otherwise the device is charged one kernel setup per stage — a pool
	// shares the installed kernel, as SSD/NIC engines share programmed
	// logic.
	if err := r.offline(); err != nil {
		r.failAt(err)
	} else if r.st.Device != nil {
		setup := r.p.Account.ChargeSetup(r.st.Device)
		if r.ts != nil {
			r.ts.Setup = setup
		}
	}
	r.workers = r.one[:]
	if r.w > 1 {
		r.workers = make([]worker, r.w)
	}
	for wi := range r.workers {
		inst := r.st.Stage
		if r.w > 1 {
			inst = inst.(ParallelStage).NewWorker()
		}
		// A copy that blocks for long stretches (injected slowness) observes
		// the cancellation channel, so teardown never leaks a goroutine.
		if ca, ok := inst.(CancelAware); ok {
			ca.SetCancel(r.done, r.p.Services.Clock)
		}
		w := &r.workers[wi]
		*w = worker{r: r, inst: inst, slot: wi}
		w.emit = w.take
	}
	if r.w > 1 {
		r.startPool()
	}
	for seq := int64(0); ; seq++ {
		it, ok, err := r.in.recvItem()
		if err != nil {
			r.fail(err)
			break
		}
		if !ok {
			break
		}
		si := stageItem{seq: seq, b: it.b, epoch: it.epoch}
		if it.b != nil {
			r.res.BatchesIn[r.i]++
			// Fault checks stay here so the injector's seeded sequence
			// sees batches in arrival order, not worker order.
			if si.err = r.offline(); si.err != nil {
				r.in.CreditReturn()
			} else if r.pool != nil {
				r.pool.dispatch(si)
				continue
			} else {
				si.input, si.err = r.workers[0].process(si.b, seq)
			}
		}
		if r.pool != nil {
			r.pool.merge(si)
		} else if !r.settle(&si) {
			break
		}
	}
	if r.pool != nil {
		r.pool.stop()
	}
	r.flush()
	r.in.flushCredits()
	if r.next != nil {
		r.next.Close()
	}
}

// settle is the in-order step behind every item, inline at width 1 and
// in the merger at width N. A marker is the stage's checkpoint cut, a
// failed item fails the run, and a processed batch's held outputs go
// downstream and its input onto the tape. It reports whether the run
// goes on.
func (r *stageRun) settle(si *stageItem) bool {
	switch {
	case si.b == nil:
		// Every batch of the epoch has been settled, so the stage's state
		// now is the epoch's consistent snapshot: record it and pass the
		// marker on; at the last stage the epoch completes. A pool never
		// hosts a Snapshotter under checkpointing (stageWorkers).
		var snap any
		if sn, ok := r.st.Stage.(Snapshotter); ok {
			snap = sn.SnapshotState()
		}
		r.p.Ckpt.stageSnap(r.i, si.epoch, snap)
		if r.next == nil {
			r.p.Ckpt.sinkComplete(si.epoch, r.res.SinkBatches)
		} else if err := r.next.SendMarker(si.epoch); err != nil {
			r.fail(err)
			return false
		}
		return true
	case si.err != nil:
		r.failAt(si.err)
		return false
	}
	for _, ob := range si.outs {
		if err := r.out(ob); err != nil {
			r.fail(err)
			return false
		}
	}
	if r.ts != nil {
		r.ts.Inputs = append(r.ts.Inputs, si.input)
	}
	return true
}

// flush is the end-of-stream phase: on a clean end every worker drains
// its retained state through out, in worker order, so stateful replicas
// flush deterministically. A failed run skips it.
func (r *stageRun) flush() {
	select {
	case <-r.done:
		return
	default:
	}
	before := r.res.BatchesOut[r.i]
	for wi := range r.workers {
		w := &r.workers[wi]
		w.begin()
		err := w.inst.Flush(w.emit)
		w.end()
		if err != nil {
			r.fail(err)
			break
		}
	}
	if r.ts != nil {
		r.ts.FlushOuts = int(r.res.BatchesOut[r.i] - before)
	}
}
