package core

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/bufferpool"
	"repro/internal/columnar"
	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/fabric"
	"repro/internal/flow"
	"repro/internal/morsel"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/sim"
	"repro/internal/storage"
)

// VolcanoEngine is the CPU-centric baseline the paper argues against: a
// pull-based iterator engine that fetches whole segments through a
// buffer pool into compute-node memory and evaluates every operator on
// the cores. The storage layer only stores; the NICs only move bytes;
// all reduction happens at the end of the data path (Figure 1).
type VolcanoEngine struct {
	engineBase
	Pool *bufferpool.Pool

	cpu       *fabric.Device
	dram      string
	dramToCPU *fabric.Link
}

// volcanoAccount is one execution's private state: what its buffer-pool
// misses cost — how many there were and the object store's account of
// the fetches — its account of device and link work and, on a traced
// execution, the trace. It rides in the execution's ctx —
// the pool's loader signature gives fetchPage no other argument. The
// counters are locked because a parallel scan's workers fetch at once;
// a traced execution runs at width 1, so its spans are recorded from
// one goroutine.
type volcanoAccount struct {
	mu     sync.Mutex
	misses int64
	reads  storage.ReadStats

	work *fabric.Account // device and link charges; set before the execution starts

	tr *obs.Trace // nil unless the execution is traced
}

type volcanoAccountKey struct{}

// volcanoAccountFrom returns the execution's account, nil outside one.
func volcanoAccountFrom(ctx context.Context) *volcanoAccount {
	acct, _ := ctx.Value(volcanoAccountKey{}).(*volcanoAccount)
	return acct
}

// traced reports whether the execution records a trace.
func (a *volcanoAccount) traced() bool { return a != nil && a.tr.Enabled() }

// NewVolcanoEngine wires the baseline onto a cluster with the given
// buffer-pool capacity on compute node 0.
func NewVolcanoEngine(c *fabric.Cluster, poolBytes sim.Bytes) *VolcanoEngine {
	e := &VolcanoEngine{
		engineBase: newEngineBase(c, "volcano"),
		cpu:        c.ComputeCPU(0),
		dram:       fabric.ComputeDev(0, "dram"),
	}
	e.dramToCPU = c.LinkBetween(e.dram, e.cpu.Name)
	e.Pool = bufferpool.New(poolBytes, e.fetchPage)
	return e
}

// fetchPage loads one segment blob from disaggregated storage into the
// compute node's memory, charging the media and the whole network path —
// this is the legacy data path of Figure 1 stretched across the cloud.
func (e *VolcanoEngine) fetchPage(ctx context.Context, id bufferpool.PageID) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var reads storage.ReadStats
	blob, err := e.Storage.Store().Read(ctx, string(id), true, &reads)
	acct := volcanoAccountFrom(ctx)
	var work *fabric.Account
	if acct != nil {
		acct.mu.Lock()
		acct.misses++
		acct.reads.Add(reads)
		acct.mu.Unlock()
		work = acct.work
	}
	if err != nil {
		return nil, err
	}
	// Verify before caching: a read that came back corrupt must fail the
	// fetch, not poison the buffer pool for every later query. The framing
	// and every column's checksum are checked without decoding anything;
	// pullSegment decodes.
	if err := storage.VerifySegmentBlob(blob); err != nil {
		return nil, fmt.Errorf("storage: fetch %s: %w", id, err)
	}
	n := sim.Bytes(len(blob))
	media := e.Cluster.MustDevice(fabric.DevStorageMed)
	acct.span("fetch", media.Name, obs.SpanScan, work.Charge(media, fabric.OpScan, n), n)
	// Walk the path link by link: each hop is charged and, on a traced
	// execution, gets its own transfer span.
	path, err := e.Cluster.Path(fabric.DevStorageMed, e.dram)
	if err != nil {
		return nil, err
	}
	for _, l := range path {
		acct.span("xfer", l.Name, obs.SpanTransfer, work.Transfer(l, n), n)
	}
	return blob, nil
}

// span records one serial span on the execution's trace, advancing the
// trace's clock by cost. Untraced (or outside an execution) this
// is a no-op; the cost argument's meter charge already happened at the
// call site either way.
func (a *volcanoAccount) span(name, track string, kind obs.SpanKind, cost sim.VTime, n sim.Bytes) {
	if !a.traced() {
		return
	}
	start := a.tr.Now()
	a.tr.AddSpan(obs.Span{
		Name: name, Track: track, Kind: kind,
		Start: start, End: a.tr.Advance(cost), Bytes: n,
	})
}

// Load ingests a batch.
func (e *VolcanoEngine) Load(name string, b *columnar.Batch) error {
	return e.Storage.Append(name, b)
}

// charge charges the CPU for every batch pulled through it, before the
// operator above sees it; this is how the baseline accounts
// per-operator work. On a traced execution each charge is also a span on
// the CPU's track, serialized on the trace's clock.
func (e *VolcanoEngine) charge(acct *volcanoAccount, in exec.Iterator, op fabric.OpClass, name string) exec.Iterator {
	return func() (*columnar.Batch, error) {
		b, err := in()
		if err != nil || b == nil {
			return b, err
		}
		n := sim.Bytes(b.ByteSize())
		acct.span(name, e.cpu.Name, obs.SpanStage, acct.work.Charge(e.cpu, op, n), n)
		return b, nil
	}
}

// Execute pulls a query through the data-flow engine's stages. ctx bounds
// the execution: it is consulted before each buffer-pool fetch and each
// pulled segment, so a deadline or cancellation stops the pull loop and
// surfaces as ErrDeadlineExceeded or ErrCancelled.
func (e *VolcanoEngine) Execute(ctx context.Context, q *plan.Query) (*Result, error) {
	ctx = ctxOrBackground(ctx)
	startWall := e.Clock.Now()
	if err := q.Validate(); err != nil {
		return nil, err
	}
	meta, err := e.Storage.Table(q.Table)
	if err != nil {
		return nil, err
	}

	acct := &volcanoAccount{work: e.Cluster.NewAccount()}
	if e.Tracing {
		acct.tr = obs.New()
	}
	tr := acct.tr
	ctx = context.WithValue(ctx, volcanoAccountKey{}, acct)

	// Scan: pull each segment through the buffer pool, decode on the
	// CPU, then stream the decoded batch from DRAM into the cores at
	// the single-core-limited rate.
	var maxDecoded sim.Bytes
	workers := min(e.Workers, e.cpu.Units())
	if e.Tracing {
		// The serial span chain cannot describe overlapped fetches.
		workers = 1
	}
	it, cleanup := e.scan(ctx, meta, workers, &maxDecoded)
	defer cleanup()

	// Operator tree, all on the CPU: the data-flow engine's stages, each
	// pulled by the one above it.
	finalAgg := func(spec expr.GroupBy) flow.Stage {
		return &exec.FinalAggStage{Agg: expr.NewFinalAggregator(spec, meta.Schema), Raw: true}
	}
	if q.Filter != nil {
		it = exec.Pull(e.charge(acct, it, fabric.OpFilter, "filter"), &exec.FilterStage{Pred: q.Filter})
	}
	switch {
	case q.CountOnly:
		it = exec.Pull(e.charge(acct, it, fabric.OpCount, "count"), finalAgg(expr.GroupBy{Aggs: []expr.AggSpec{{Func: expr.Count}}}))
	case q.GroupBy != nil:
		it = exec.Pull(e.charge(acct, it, fabric.OpAggregate, "aggregate"), finalAgg(*q.GroupBy))
	case q.Projection != nil:
		it = exec.Pull(e.charge(acct, it, fabric.OpProject, "project"), &exec.ProjectStage{Columns: q.Projection})
	}
	if q.OrderBy >= 0 {
		it = exec.Pull(e.charge(acct, it, fabric.OpSort, "sort"), &exec.SortStage{ByCol: q.OrderBy})
	}
	if q.Limit > 0 {
		it = exec.Limit(it, q.Limit)
	}

	batches, err := exec.Drain(it)
	if err != nil {
		return nil, lifecycleError(err)
	}
	res := &Result{Batches: batches, Trace: tr}
	sampleMeterSeries(tr, acct.work)
	res.Stats = e.buildStats(acct, res)
	res.Stats.PeakMemory += maxDecoded
	res.Stats.BreakerTrips = res.Stats.Scan.BreakerTrips
	sampleHealthSeries(tr, e.Resilience)
	e.publishQuery(ctx, res, startWall)
	return res, nil
}

// scan is the front of the pull loop at any width: pullSegment (fetch
// through the buffer pool and decode, on the lane it is given), then
// deliver (in segment order), with morsel.Start between them — inline at
// width 1, a worker pool and a reorder buffer at width N — so the
// operator tree sees the same stream. The cleanup stops the workers;
// callers must run it before returning (a LIMIT may abandon the iterator
// mid-stream, and the workers must not outlive the query). At width 1
// it has nothing to do.
func (e *VolcanoEngine) scan(ctx context.Context, meta *storage.TableMeta, workers int, peak *sim.Bytes) (exec.Iterator, func()) {
	acct := volcanoAccountFrom(ctx)
	keys := e.Storage.SegmentKeys(meta)
	type pulled struct {
		batch *columnar.Batch
		err   error
	}
	segs := morsel.Start(ctx, 0, len(keys), workers, func(ctx context.Context, idx, lane int) pulled {
		b, err := e.pullSegment(ctx, acct, keys[idx], lane)
		return pulled{b, err}
	})
	return func() (*columnar.Batch, error) {
		p, ok := segs.Next()
		if !ok {
			return nil, ctx.Err()
		}
		if p.err != nil {
			return nil, p.err
		}
		return e.deliver(acct, p.batch, peak), nil
	}, func() { segs.Stop(func(pulled) {}) }
}

// pullSegment pulls one segment through the buffer pool and decodes it
// (checksum + decompress) on the compute CPU, as the legacy model does,
// charging the decode to the given per-core lane.
func (e *VolcanoEngine) pullSegment(ctx context.Context, acct *volcanoAccount, key string, lane int) (*columnar.Batch, error) {
	page, err := e.Pool.Get(ctx, bufferpool.PageID(key))
	if err != nil {
		return nil, err
	}
	// The segment is a view of the page's bytes and lives no longer than
	// the pin: Decode copies every value out before the deferred Unpin.
	defer e.Pool.Unpin(bufferpool.PageID(key))
	seg, err := storage.UnmarshalSegment(page.Data)
	if err != nil {
		return nil, err
	}
	n := sim.Bytes(len(page.Data))
	acct.span("decode", e.cpu.Name, obs.SpanScan, acct.work.ChargeLane(e.cpu, fabric.OpDecompress, n, lane), n)
	return seg.Decode()
}

// deliver is the in-order step behind every pull: the decoded batch
// streams from DRAM into the cores. peak, when non-nil, tracks the
// largest decoded batch.
func (e *VolcanoEngine) deliver(acct *volcanoAccount, b *columnar.Batch, peak *sim.Bytes) *columnar.Batch {
	n := sim.Bytes(b.ByteSize())
	if peak != nil && n > *peak {
		*peak = n
	}
	if e.dramToCPU != nil {
		acct.span("xfer", e.dramToCPU.Name, obs.SpanTransfer, acct.work.Transfer(e.dramToCPU, n), n)
	}
	return b
}

// buildStats mirrors the data-flow engine's accounting so results are
// directly comparable. Busy times are effective readings (lane work
// divided across a device's units; see fabric.Usage.Effective). The
// store's account of the query's fetches is reported where the
// data-flow engine reports its scan's, so E19 compares recovery cost
// fairly.
func (e *VolcanoEngine) buildStats(acct *volcanoAccount, res *Result) ExecStats {
	st, busiest := fold(acct.work, e.cpu)
	st.Engine, st.ResultRows = e.engine, res.Rows()
	acct.mu.Lock()
	misses := acct.misses
	st.Scan.ReadStats = acct.reads
	acct.mu.Unlock()
	// Pull execution pays the storage round trip per buffer-pool miss of
	// this query, not once per stream: latency amplifies with misses.
	var latency sim.VTime
	if path, err := e.Cluster.Path(fabric.DevStorageMed, e.dram); err == nil {
		var hop sim.VTime
		for _, l := range path {
			hop += l.Latency
		}
		latency = hop * sim.VTime(misses)
	}
	st.SimTime = busiest + latency
	poolStats := e.Pool.Stats()
	var resultBytes sim.Bytes
	for _, b := range res.Batches {
		resultBytes += sim.Bytes(b.ByteSize())
	}
	st.PeakMemory = poolStats.Resident + resultBytes
	return st
}
