package core

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/columnar"
	"repro/internal/encoding"
	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/fabric"
	"repro/internal/faults"
	"repro/internal/flow"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/repair"
	"repro/internal/resilience"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/storage"
)

// DataFlowEngine is the paper's proposed engine: queries run as
// push-based, credit-controlled pipelines whose stages are placed along
// the data path (storage processor, NICs, near-memory accelerator, CPU)
// by the optimizer, with no buffer pool and no data caches on the
// compute side (Sections 7.4-7.5).
type DataFlowEngine struct {
	engineBase
	Scheduler *sched.Scheduler

	// SecureWire encrypts every batch leaving the storage node and
	// decrypts it at the receiving NIC — the encryption step the paper
	// (Section 1) says cloud query plans must carry as a first-class
	// operation. Requires smart NICs; real AES-CTR+HMAC runs on the
	// payload.
	SecureWire bool

	// PartialRestart enables stage-level checkpointing: pipelines record
	// completed-segment watermarks at stage boundaries, and a mid-query
	// device failure replays only the suffix since the last completed
	// checkpoint — on a re-hosted device — instead of the whole query.
	// Disabled automatically when the storage processor holds pushed-down
	// aggregation state (which no stage snapshot can capture).
	PartialRestart bool
	// EagerDecode disables encoded predicate evaluation: plans that ask
	// for EncodedEval still run, but the storage scan decodes every
	// segment before filtering, as the pre-late-materialization engine
	// did. Results are bit-identical either way; only decode busy time
	// differs. Used by E23 as the baseline arm.
	EagerDecode bool

	mu    sync.Mutex
	stats map[string]plan.TableStats
	paths map[int]plan.PathModel
}

// DefaultMaxRecoveryAttempts bounds how many times one query is retried,
// failed over or partially restarted: enough to lose every accelerator
// tier on the path and still land on the CPU plan.
const DefaultMaxRecoveryAttempts = 5

// checkpointSegments is how many storage segments one checkpoint epoch
// spans. Smaller epochs bound replay tighter but cost more marker
// traffic and snapshots.
const checkpointSegments = 2

// NewDataFlowEngine wires an engine onto a cluster. The scheduler is
// built on the same wiring point as the engine base's store.
func NewDataFlowEngine(c *fabric.Cluster) *DataFlowEngine {
	e := &DataFlowEngine{
		engineBase: newEngineBase(c, "dataflow"),
		stats:      make(map[string]plan.TableStats),
		paths:      make(map[int]plan.PathModel),
	}
	e.Scheduler = sched.New(e.Services)
	return e
}

// EnableResilience sets (or, with nil, removes) the gray-failure policy
// — the same as assigning e.Resilience, which is what every layer reads
// — and additionally mirrors the policy's breaker transitions into the
// metrics registry (resilience.breaker.state per device, and a trip
// counter), whichever of the two is set first.
func (e *DataFlowEngine) EnableResilience(p *resilience.Policy) {
	e.Resilience = p
	if p != nil && p.Breakers != nil {
		p.Breakers.OnChange = func(dev string, st resilience.BreakerState) {
			publishBreakerGauge(e.Metrics, dev, st)
		}
	}
}

// EnableRepair constructs the self-healing storage controller and turns
// on what it needs from the read path: every replica read is
// checksum-verified and clean payloads are written back over corrupt
// replicas (read-repair); until it is called the read path pays nothing
// for either. The returned controller's ScrubPass / ReclonePass / Run
// drive background scrubbing and re-replication. Its collaborators are
// the engine's, read through the store: corrupt replicas strike
// e.Resilience's health and breakers, BurnMax pauses repair while e.SLO
// says the foreground misses its objective, and the durability gauges
// land on e.Metrics — set before or after this call.
func (e *DataFlowEngine) EnableRepair(cfg repair.Config) *repair.Controller {
	e.Storage.EnableVerify(true)
	return repair.New(e.Storage.Store(), cfg)
}

// Load ingests a batch and updates planner statistics.
func (e *DataFlowEngine) Load(name string, b *columnar.Batch) error {
	if err := e.Storage.Append(name, b); err != nil {
		return err
	}
	st := ComputeStats(b)
	e.mu.Lock()
	if prev, ok := e.stats[name]; ok {
		st = MergeStats(prev, st)
	}
	e.stats[name] = st
	e.mu.Unlock()
	return nil
}

// SetStats overrides a table's planner statistics (used by experiments
// that construct stats analytically).
func (e *DataFlowEngine) SetStats(name string, st plan.TableStats) {
	e.mu.Lock()
	e.stats[name] = st
	e.mu.Unlock()
}

// Stats returns the planner statistics for a table.
func (e *DataFlowEngine) Stats(name string) (plan.TableStats, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	st, ok := e.stats[name]
	if !ok {
		return st, fmt.Errorf("core: no statistics for table %q", name)
	}
	return st, nil
}

// path returns (building lazily) the planner path for a compute node.
func (e *DataFlowEngine) path(node int) (plan.PathModel, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if pm, ok := e.paths[node]; ok {
		return pm, nil
	}
	pm, err := plan.FromCluster(e.Cluster, node)
	if err != nil {
		return pm, err
	}
	e.paths[node] = pm
	return pm, nil
}

// Plan enumerates ranked plan variants for a query on the given node.
func (e *DataFlowEngine) Plan(q *plan.Query, node int) ([]*plan.Physical, error) {
	return e.PlanExcluding(q, node, nil)
}

// PlanExcluding enumerates ranked plan variants that place no operator
// on the excluded (or offline) devices; the failover path uses it to
// re-plan around a device that just failed.
func (e *DataFlowEngine) PlanExcluding(q *plan.Query, node int, exclude map[string]bool) ([]*plan.Physical, error) {
	st, err := e.Stats(q.Table)
	if err != nil {
		return nil, err
	}
	pm, err := e.path(node)
	if err != nil {
		return nil, err
	}
	opt := &plan.Optimizer{Path: pm, Exclude: exclude}
	return opt.Enumerate(q, st)
}

// Execute plans, schedules and runs a query on compute node 0.
func (e *DataFlowEngine) Execute(ctx context.Context, q *plan.Query) (*Result, error) {
	return e.ExecuteOn(ctx, q, 0)
}

// ExecuteOn plans, schedules and runs a query on the given compute node,
// recovering from runtime faults. A failed device (StageError naming it)
// triggers failover: the device is excluded, placements re-enumerated —
// degrading to the CPU-only plan in the worst case — and the query
// re-admitted and re-executed. Transient faults (link flaps, exhausted
// storage retry budgets) re-execute on the same placements. The work an
// abandoned attempt burned is read off that attempt's account and
// reported as RecoveryBytes/RecoveryTime; what its reads cost at the
// object store stays on the query's account (Scan.ReadStats). With
// PartialRestart set, a device failure first tries a cheaper stage-level
// restart inside the attempt (see executePlan); only when that is
// impossible does the whole-query failover here take over.
//
// ctx bounds the whole lifecycle: admission (a queued query sheds with
// sched.ErrOverloaded when its deadline cannot be met), scan, stage
// execution, and recovery. A deadline or cancellation mid-flight
// releases the admission, unwinds every goroutine and credit, and
// surfaces as ErrDeadlineExceeded or ErrCancelled.
func (e *DataFlowEngine) ExecuteOn(ctx context.Context, q *plan.Query, node int) (*Result, error) {
	ctx = ctxOrBackground(ctx)
	startWall := e.Clock.Now()
	e.Scheduler.SetWorkers(e.Workers)
	exclude := make(map[string]bool)
	var failovers int
	var queryRetries, trips int64
	var lost abandonedWork
	// One trace spans the whole query: abandoned attempts drop their
	// spans (ClearSpans) but keep fault/failover/admit annotations, so
	// the final timeline shows the answer's execution plus the recovery
	// history that led to it.
	var tr *obs.Trace
	if e.Tracing {
		tr = obs.New()
	}

	for attempt := 0; ; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, lifecycleError(err)
		}
		variants, err := e.PlanExcluding(q, node, exclude)
		if err != nil {
			return nil, err
		}
		adm, err := e.Scheduler.AdmitTraced(ctx, variants, tr)
		if err != nil {
			return nil, lifecycleError(err)
		}
		tr.ClearSpans()
		res, err := func() (*Result, error) {
			defer e.Scheduler.Release(adm)
			return e.executePlan(ctx, adm.Plan, tr, &lost)
		}()
		trips += e.reportBreakers(adm.Plan, err)
		if err == nil {
			res.Stats.Scan.ReadStats.Add(lost.reads)
			res.Stats.QueryRetries = queryRetries
			res.Stats.Failovers = failovers
			res.Stats.DegradedPlacement = failovers > 0 || res.Stats.PartialRestarts > 0
			res.Stats.RecoveryBytes += lost.bytes
			res.Stats.RecoveryTime += lost.time
			res.Stats.BreakerTrips = trips + res.Stats.Scan.BreakerTrips
			e.publishQuery(ctx, res, startWall)
			return res, nil
		}
		if lerr := lifecycleError(err); lerr != err || ctx.Err() != nil {
			// The query was cancelled or timed out: recovery would only
			// burn more work the caller no longer wants.
			return nil, lifecycleError(errorOrCtx(lerr, ctx))
		}
		if attempt+1 >= DefaultMaxRecoveryAttempts {
			return nil, err
		}
		var se *flow.StageError
		switch {
		case errors.As(err, &se) && se.Device != "":
			exclude[se.Device] = true
			e.Scheduler.NoteFailover(se.Device)
			failovers++
			tr.AddEvent(obs.Event{Name: "failover", Track: se.Device, At: 0,
				Detail: fmt.Sprintf("stage %s failed (%v); re-planning without %s", se.Stage, se.Err, se.Device)})
		case faults.IsTransient(err):
			// Whole-query re-execution is the most expensive retry in the
			// system; it spends from the same global budget as read retries
			// and hedges, so a fault storm degrades to failing fast instead
			// of an unbounded retry storm.
			if e.Resilience != nil && !e.Resilience.Budget.TryAcquire() {
				return nil, fmt.Errorf("core: retry budget exhausted: %w", err)
			}
			queryRetries++
			tr.AddEvent(obs.Event{Name: "query-retry", Track: "engine", At: 0, Detail: err.Error()})
		default:
			return nil, err
		}
	}
}

// reportBreakers feeds one attempt's outcome into the policy's circuit
// breakers: a device-attributed stage failure charges that device's
// breaker, success credits every device the plan placed work on (which
// also closes any half-open breaker whose probe this attempt was). It
// returns the breakers the failure opened, 0 or 1.
func (e *DataFlowEngine) reportBreakers(ph *plan.Physical, err error) (trips int64) {
	if e.Resilience == nil || e.Resilience.Breakers == nil || ph == nil {
		return 0
	}
	br := e.Resilience.Breakers
	if err == nil {
		for _, dev := range ph.PlacedDevices() {
			br.Success(dev)
		}
		return 0
	}
	var se *flow.StageError
	if errors.As(err, &se) && se.Device != "" && br.Failure(se.Device, e.Clock.Now()) {
		return 1
	}
	return 0
}

// errorOrCtx prefers err, falling back to the context's own error when
// the run failed for an unrelated reason while ctx was already dead.
func errorOrCtx(err error, ctx context.Context) error {
	if errors.Is(err, ErrDeadlineExceeded) || errors.Is(err, ErrCancelled) {
		return err
	}
	if cerr := ctx.Err(); cerr != nil {
		return cerr
	}
	return err
}

// abandonedWork is what the attempts that did not answer cost a query:
// their account at the object store (the hedges and budget denials they
// burned are the query's too) and the link payload and busy time wasted.
type abandonedWork struct {
	reads storage.ReadStats
	bytes sim.Bytes
	time  sim.VTime
}

// waste sums the link payload and bottleneck busy time on acct — the
// account of one abandoned attempt, or what an attempt charged after its
// last completed checkpoint. Busy time is the effective (lane-divided)
// reading so replayed parallel work is not over-counted against the
// wall clock.
func waste(acct *fabric.Account) (sim.Bytes, sim.VTime) {
	st, busiest := fold(acct, nil)
	return st.MovedBytes, busiest
}

// ExecutePlan runs one specific physical plan variant, bypassing the
// scheduler. Experiments use it to force variants. Tracing follows
// e.Tracing, with a fresh trace per call.
func (e *DataFlowEngine) ExecutePlan(ctx context.Context, ph *plan.Physical) (*Result, error) {
	startWall := e.Clock.Now()
	var tr *obs.Trace
	if e.Tracing {
		tr = obs.New()
	}
	res, err := e.executePlan(ctx, ph, tr, new(abandonedWork))
	if err != nil {
		return nil, lifecycleError(err)
	}
	res.Stats.BreakerTrips = res.Stats.Scan.BreakerTrips
	e.publishQuery(ctx, res, startWall)
	return res, nil
}

// executePlan runs one physical plan, recording onto tr when non-nil.
//
// With PartialRestart enabled (and no aggregation state pushed into the
// storage processor), the run checkpoints at segment-aligned epoch
// markers. A device failure mid-stream then restarts only the pipeline —
// stages rebuilt, snapshots restored, the scan resumed at the last
// completed epoch's watermark, the failed device's stages re-hosted on
// the CPU — instead of abandoning the query. Work done since the last
// completed checkpoint is the only replayed work; it is read off the
// query's account against the copy taken at the checkpoint and
// reported as ReplayedBytes (and folded into RecoveryBytes/Time). A
// failure with no completed checkpoint, or one the CPU cannot host,
// falls through to the caller's whole-query failover. What a failed run
// cost is added to lost, so the caller can keep it on the query.
func (e *DataFlowEngine) executePlan(ctx context.Context, ph *plan.Physical, tr *obs.Trace, lost *abandonedWork) (_ *Result, err error) {
	ctx = ctxOrBackground(ctx)
	q := ph.Query
	tableSchema, err := e.TableSchema(q.Table)
	if err != nil {
		return nil, err
	}

	// Everything this execution charges a device or a link — every
	// attempt of the restart loop below — goes on its own account.
	acct := e.Cluster.NewAccount()

	spec, emitsPartials, err := e.buildScanSpec(ph, tableSchema.NumFields())
	if err != nil {
		return nil, err
	}
	spec.Workers = e.Workers
	spec.Account = acct

	// Pushed-down aggregation accumulates inside the storage processor,
	// out of reach of stage snapshots — no consistent cut exists, so such
	// plans recover by whole-query failover only.
	ckptEnabled := e.PartialRestart && !emitsPartials

	// The storage scan and the pipeline source share one virtual clock:
	// the scan advances it as it charges media/decode work, and the
	// source stamps every emitted batch with its reading, so downstream
	// stage spans replay against real scan progress.
	var clock *obs.VClock
	if tr.Enabled() {
		clock = obs.NewVClock()
		spec.Trace = tr
		spec.Clock = clock
	}

	var result Result
	var totalScan storage.ScanStats
	defer func() {
		if err != nil {
			lost.reads.Add(totalScan.ReadStats)
			wb, wt := waste(acct)
			lost.bytes += wb
			lost.time += wt
		}
	}()
	var maxBatch sim.Bytes
	var flowRes flow.Result

	// Cross-attempt restart state.
	var restore *flow.Restore // snapshots to reinstall, nil on first attempt
	startSeg := 0             // scan watermark to resume from
	epoch := 0                // monotonically increasing across attempts
	restarts := 0
	checkpoints := 0
	var replayed sim.Bytes
	var replayTime sim.VTime
	offline := make(map[string]bool) // devices whose stages were re-hosted

	for attempt := 0; ; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}

		stages, paths, err := e.buildStages(ph, spec, emitsPartials, tableSchema)
		if err != nil {
			return nil, err
		}
		if len(offline) > 0 {
			stages, paths, err = e.rehostStages(ph, stages, paths, offline)
			if err != nil {
				return nil, err
			}
		}

		var ck *flow.Checkpointer
		attemptSpec := spec
		attemptSpec.StartSegment = startSeg
		// The account as of the last completed checkpoint: everything
		// charged after this point is lost — and replayed — if the attempt
		// dies. Each epoch's copy is taken at Mark time on the source
		// goroutine (an exact stream-positional cut: segments past the
		// watermark have not been charged yet) and promoted when the
		// epoch completes at the sink, so the waste accounting cannot be
		// skewed by how far the source ran ahead of the marker.
		var lastCkpt *fabric.Account
		if ckptEnabled {
			lastCkpt = acct.Since(nil)
			ck = flow.NewCheckpointer()
			var snapMu sync.Mutex
			markSnaps := make(map[int]*fabric.Account)
			ck.OnComplete = func(ep int) {
				snapMu.Lock()
				if s, ok := markSnaps[ep]; ok {
					lastCkpt = s
					delete(markSnaps, ep)
				}
				snapMu.Unlock()
			}
			segs := 0
			attemptSpec.Progress = func(next int) error {
				segs++
				if segs >= checkpointSegments {
					segs = 0
					epoch++
					snapMu.Lock()
					markSnaps[epoch] = acct.Since(nil)
					snapMu.Unlock()
					return ck.Mark(epoch, next)
				}
				return nil
			}
		}

		var scanStats storage.ScanStats
		pipe := &flow.Pipeline{
			Name: fmt.Sprintf("q-%s", ph.Variant),
			Source: func(emit flow.Emit) error {
				st, err := e.Storage.Scan(ctx, q.Table, attemptSpec, func(b *columnar.Batch) error {
					if n := sim.Bytes(b.ByteSize()); n > maxBatch {
						maxBatch = n
					}
					return emit(b)
				})
				scanStats = st
				return err
			},
			Stages:      stages,
			Paths:       paths,
			Workers:     e.Workers,
			Services:    e.Services,
			Trace:       tr,
			Clock:       clock,
			SourceTrack: e.Storage.Proc().Name,
			Ckpt:        ck,
			Restore:     restore,
			Account:     acct,
		}

		attemptStart := len(result.Batches)
		res, runErr := pipe.Run(ctx, func(b *columnar.Batch) error {
			result.Batches = append(result.Batches, b)
			return nil
		})
		totalScan.Add(scanStats)
		checkpoints += ck.Completed()

		if runErr == nil {
			flowRes = res
			break
		}

		// Decide whether a stage-level restart is possible; otherwise the
		// caller's whole-query recovery takes over.
		var se *flow.StageError
		ep, haveCkpt := ck.Latest()
		switch {
		case ctx.Err() != nil:
			return nil, runErr
		case attempt+1 >= DefaultMaxRecoveryAttempts:
			return nil, runErr
		case !errors.As(runErr, &se) || se.Device == "" || !haveCkpt:
			return nil, runErr
		case se.Device == ph.Path.Sites[0].Device.Name:
			// The source's own host died; there is nothing to re-host it on.
			return nil, runErr
		}

		// Everything charged since the last completed checkpoint is lost
		// work this restart will redo.
		wb, wt := waste(acct.Since(lastCkpt))
		replayed += wb
		replayTime += wt

		// Roll the delivered output back to the checkpoint's sink
		// watermark and arm the next attempt.
		result.Batches = result.Batches[:attemptStart+int(ck.SinkBatches(ep))]
		restore = &flow.Restore{Epoch: ep, Snaps: ck.Snaps(ep)}
		if seg, ok := ck.Resume(ep).(int); ok {
			startSeg = seg
		}
		offline[se.Device] = true
		restarts++
		e.Scheduler.NoteFailover(se.Device)
		tr.AddEvent(obs.Event{Name: "partial-restart", Track: se.Device, At: clock.Now(),
			Detail: fmt.Sprintf("stage %s failed (%v); replaying from epoch %d (segment %d), re-hosting %s stages on %s",
				se.Stage, se.Err, ep, startSeg, se.Device, ph.Path.CPU().Name)})
		if tr.Enabled() {
			at := clock.Now()
			tr.AddSpan(obs.Span{Name: fmt.Sprintf("restart@epoch%d", ep), Track: ph.Path.CPU().Name,
				Kind: obs.SpanSetup, Start: at, End: at, Seq: int64(ep), Bytes: wb})
		}
	}

	result.Stats = e.buildStats(ph, acct, flowRes, totalScan, maxBatch, &result)
	result.Stats.PartialRestarts = restarts
	result.Stats.Checkpoints = checkpoints
	result.Stats.ReplayedBytes = replayed
	result.Stats.RecoveryBytes += replayed
	result.Stats.RecoveryTime += replayTime
	result.Trace = tr
	sampleMeterSeries(tr, acct)
	sampleHealthSeries(tr, e.Resilience)
	return &result, nil
}

// rehostStages substitutes the path CPU for every stage hosted on a
// device in offline, re-deriving inter-stage link paths. A stage whose
// operator the CPU cannot run fails the re-host (the caller then falls
// back to whole-query failover, which re-plans from scratch).
func (e *DataFlowEngine) rehostStages(ph *plan.Physical, stages []flow.Placed, paths [][]*fabric.Link, offline map[string]bool) ([]flow.Placed, [][]*fabric.Link, error) {
	cpu := ph.Path.CPU()
	prev := ph.Path.Sites[0].Device
	out := make([]flow.Placed, len(stages))
	outPaths := make([][]*fabric.Link, len(stages))
	for i, st := range stages {
		if offline[st.Device.Name] {
			if !cpu.Can(st.Op) {
				return nil, nil, fmt.Errorf("core: cannot re-host %s stage %q on %s", st.Op, st.Stage.Name(), cpu.Name)
			}
			st.Device = cpu
		}
		links, err := e.Cluster.Path(prev.Name, st.Device.Name)
		if err != nil {
			return nil, nil, err
		}
		out[i] = st
		outPaths[i] = links
		prev = st.Device
	}
	return out, outPaths, nil
}

// buildScanSpec translates the plan's site-0 placements into the storage
// scan request.
func (e *DataFlowEngine) buildScanSpec(ph *plan.Physical, numFields int) (storage.ScanSpec, bool, error) {
	q := ph.Query
	spec := storage.ScanSpec{Projection: q.Projection}
	filterAtStorage := ph.HasPlacement(fabric.OpFilter, plan.SiteStorage)
	preaggAtStorage := ph.HasPlacement(fabric.OpPreAgg, plan.SiteStorage)
	countAtStorage := ph.HasPlacement(fabric.OpCount, plan.SiteStorage)
	projectAtStorage := ph.HasPlacement(fabric.OpProject, plan.SiteStorage)

	spec.Filter = q.Filter
	spec.Pushdown = filterAtStorage || preaggAtStorage || countAtStorage || projectAtStorage
	spec.EncodedEval = ph.EncodedEval && !e.EagerDecode
	if spec.Pushdown && !filterAtStorage && q.Filter != nil {
		// A plan that projects at storage but filters later would drop
		// the filter columns; the optimizer never builds this shape.
		return spec, false, fmt.Errorf("core: plan %q pushes projection but not the filter", ph.Variant)
	}
	emitsPartials := false
	switch {
	case preaggAtStorage:
		spec.PreAgg = q.GroupBy
		emitsPartials = true
	case countAtStorage:
		spec.PreAgg = &expr.GroupBy{Aggs: []expr.AggSpec{{Func: expr.Count}}}
		emitsPartials = true
	case q.CountOnly && q.Projection == nil:
		// Counting later along the path: ship one narrow column only.
		narrow := 0
		if q.Filter != nil {
			narrow = q.Filter.Columns()[0]
		}
		spec.Projection = []int{narrow}
	case q.GroupBy != nil && q.Projection == nil:
		// Aggregating later: ship only the touched columns.
		spec.Projection = expr.ColumnSet(numFields, q.Filter, q.GroupBy, nil)
	}
	return spec, emitsPartials, nil
}

// buildStages assembles the downstream pipeline (everything after the
// storage scan) from the plan's placements.
func (e *DataFlowEngine) buildStages(ph *plan.Physical, spec storage.ScanSpec, partials bool, tableSchema *columnar.Schema) ([]flow.Placed, [][]*fabric.Link, error) {
	q := ph.Query
	pm := ph.Path
	numFields := tableSchema.NumFields()

	// Track the shipped format between stages.
	currentCols := spec.ShippedColumns(numFields)
	posOf := func(c int) int {
		for i, cc := range currentCols {
			if cc == c {
				return i
			}
		}
		return -1
	}
	var stages []flow.Placed
	var paths [][]*fabric.Link
	prevDevice := pm.Sites[0].Device

	addStage := func(st flow.Stage, dev *fabric.Device, op fabric.OpClass) error {
		links, err := e.Cluster.Path(prevDevice.Name, dev.Name)
		if err != nil {
			return err
		}
		stages = append(stages, flow.Placed{Stage: st, Device: dev, Op: op, ChargeInput: true})
		paths = append(paths, links)
		prevDevice = dev
		return nil
	}

	// Wire security: seal at the storage NIC, open at the receiving NIC
	// (Section 1's encryption-as-plan-operation). The sealed payload is
	// what crosses the network, so the wire also carries the encoded
	// (smaller) representation.
	var wireKey *encoding.StreamKey
	if e.SecureWire {
		snic := pm.SiteIndex(plan.SiteStorageNIC)
		cnic := pm.SiteIndex(plan.SiteComputeNIC)
		if snic < 0 || cnic < 0 ||
			!pm.Sites[snic].Device.Can(fabric.OpEncrypt) ||
			!pm.Sites[cnic].Device.Can(fabric.OpDecrypt) {
			return nil, nil, fmt.Errorf("core: SecureWire requires smart NICs on both ends")
		}
		wireKey = encoding.NewStreamKey([]byte("flow:" + q.Table))
	}

	aggregatePlaced := false
	for i := 1; i < len(pm.Sites); i++ {
		site := pm.Sites[i]
		// The receiving NIC opens sealed batches before running its own
		// stages.
		if wireKey != nil && site.Site == plan.SiteComputeNIC {
			if err := addStage(&exec.DecryptStage{Key: wireKey}, site.Device, fabric.OpDecrypt); err != nil {
				return nil, nil, err
			}
		}
		for _, op := range ph.PlacementsAt(i) {
			switch op {
			case fabric.OpFilter:
				pred := expr.Rebase(q.Filter, posOf)
				if err := addStage(&exec.FilterStage{Pred: pred}, site.Device, fabric.OpFilter); err != nil {
					return nil, nil, err
				}
			case fabric.OpProject:
				var positions []int
				for _, c := range q.Projection {
					positions = append(positions, posOf(c))
				}
				if err := addStage(&exec.ProjectStage{Columns: positions}, site.Device, fabric.OpProject); err != nil {
					return nil, nil, err
				}
				currentCols = q.Projection
			case fabric.OpPreAgg:
				budget := stateBudgetGroups(site.Device)
				var agg *expr.PartialAggregator
				var raw bool
				if partials {
					agg = expr.NewPartialAggregator(mergeSpec(q.GroupBy), expr.PartialSchema(*q.GroupBy, tableSchema), budget)
				} else {
					raw = true
					rebased := q.GroupBy.Rebase(posOf)
					agg = expr.NewPartialAggregator(rebased, tableSchema.Project(currentCols), budget)
				}
				if err := addStage(&exec.PreAggStage{Agg: agg, Raw: raw}, site.Device, fabric.OpPreAgg); err != nil {
					return nil, nil, err
				}
				partials = true
			case fabric.OpCount:
				if err := addStage(&exec.CountStage{}, site.Device, fabric.OpCount); err != nil {
					return nil, nil, err
				}
				partials = false
				aggregatePlaced = true // the count IS the result
			case fabric.OpAggregate:
				var stage *exec.FinalAggStage
				if partials {
					stage = &exec.FinalAggStage{Agg: expr.NewFinalAggregator(*q.GroupBy, tableSchema), Raw: false}
				} else {
					rebased := q.GroupBy.Rebase(posOf)
					stage = &exec.FinalAggStage{Agg: expr.NewFinalAggregator(rebased, tableSchema.Project(currentCols)), Raw: true}
				}
				if err := addStage(stage, site.Device, fabric.OpAggregate); err != nil {
					return nil, nil, err
				}
				partials = false
				aggregatePlaced = true
			case fabric.OpSort:
				if err := addStage(&exec.SortStage{ByCol: q.OrderBy}, site.Device, fabric.OpSort); err != nil {
					return nil, nil, err
				}
			}
		}
		// The sending NIC seals batches after running its own stages.
		if wireKey != nil && site.Site == plan.SiteStorageNIC {
			if err := addStage(&exec.EncryptStage{Key: wireKey}, site.Device, fabric.OpEncrypt); err != nil {
				return nil, nil, err
			}
		}
	}

	cpu := pm.CPU()
	// Storage-emitted partials (pre-agg or count pushdown) with no
	// downstream aggregate still need the terminal merge at the CPU.
	if partials && !aggregatePlaced {
		var stage *exec.FinalAggStage
		if q.CountOnly {
			countSpec := expr.GroupBy{Aggs: []expr.AggSpec{{Func: expr.Count}}}
			stage = &exec.FinalAggStage{Agg: expr.NewFinalAggregator(countSpec, tableSchema), Raw: false}
		} else {
			stage = &exec.FinalAggStage{Agg: expr.NewFinalAggregator(*q.GroupBy, tableSchema), Raw: false}
		}
		if err := addStage(stage, cpu, fabric.OpAggregate); err != nil {
			return nil, nil, err
		}
	}
	// Results must physically reach the CPU even when no stage lives
	// there.
	if prevDevice != cpu {
		if err := addStage(&deliverStage{}, cpu, fabric.OpScan); err != nil {
			return nil, nil, err
		}
	}
	if q.Limit > 0 {
		if err := addStage(&exec.LimitStage{N: q.Limit}, cpu, fabric.OpScan); err != nil {
			return nil, nil, err
		}
	}
	return stages, paths, nil
}

// mergeSpec rewrites a group-by for consumption of partial batches:
// group columns are positional (0..n-1) in the partial layout.
func mergeSpec(g *expr.GroupBy) expr.GroupBy {
	out := expr.GroupBy{GroupCols: make([]int, len(g.GroupCols)), Aggs: g.Aggs}
	for i := range out.GroupCols {
		out.GroupCols[i] = i
	}
	return out
}

// stateBudgetGroups converts a device's state budget into a group count.
func stateBudgetGroups(d *fabric.Device) int {
	if d.StateBudget == 0 {
		return 0
	}
	return int(d.StateBudget / expr.StateSize)
}

// deliverStage is the terminal passthrough that lands results in the
// compute node's cores.
type deliverStage struct{}

func (deliverStage) Name() string { return "deliver" }
func (deliverStage) Process(b *columnar.Batch, emit flow.Emit) error {
	return emit(b)
}
func (deliverStage) Flush(flow.Emit) error { return nil }

// buildStats derives the execution stats from the query's account, plus
// what the scan and the flow run reported.
func (e *DataFlowEngine) buildStats(ph *plan.Physical, acct *fabric.Account, flowRes flow.Result, scan storage.ScanStats, maxBatch sim.Bytes, res *Result) ExecStats {
	st, _ := fold(acct, ph.Path.CPU())
	st.Engine, st.Variant, st.ResultRows = e.engine, ph.Variant, res.Rows()
	st.Scan = scan
	st.Ports = flowRes.Ports
	// Peak compute-side memory: in-flight port buffering plus any final
	// aggregation state — there is no buffer pool.
	depth := 8
	var resultBytes sim.Bytes
	for _, b := range res.Batches {
		resultBytes += sim.Bytes(b.ByteSize())
	}
	st.PeakMemory = maxBatch*sim.Bytes(depth) + resultBytes + sim.Bytes(res.Rows())*expr.StateSize
	return st
}
