package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
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

	// PartialRestart only makes every pipeline run take checkpoints: an
	// epoch every checkpointSegments segments, each stage snapshotting its
	// state at the marker, so a recovery can resume past epoch 0 (see
	// ExecuteOn). Off, or when the storage processor holds pushed-down
	// aggregation state (which no stage snapshot can capture), every
	// recovery resumes at epoch 0. Each epoch costs an account copy and a
	// snapshot per stateful stage, failure or not.
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
	names map[string]string // variant -> its pipeline's name (pipelineName)
}

// DefaultMaxRecoveryAttempts bounds the pipeline runs of one query: the
// first run and every recovery after it, whatever epoch each resumes
// from. Enough to lose every accelerator tier on the path and still land
// on the CPU plan.
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
		names:      make(map[string]string),
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

// Load ingests a batch and updates planner statistics from what the
// segment writer learned while encoding it (statsFromWrite).
func (e *DataFlowEngine) Load(name string, b *columnar.Batch) error {
	sums, err := e.Storage.AppendSummary(name, b)
	if err != nil {
		return err
	}
	st := statsFromWrite(b, sums)
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

// Plan enumerates ranked plan variants for a query on the given node;
// none places an operator on an offline device.
func (e *DataFlowEngine) Plan(q *plan.Query, node int) ([]*plan.Physical, error) {
	st, err := e.Stats(q.Table)
	if err != nil {
		return nil, err
	}
	pm, err := e.path(node)
	if err != nil {
		return nil, err
	}
	opt := &plan.Optimizer{Path: pm}
	return opt.Enumerate(q, st)
}

// Execute plans, schedules and runs a query on compute node 0.
func (e *DataFlowEngine) Execute(ctx context.Context, q *plan.Query) (*Result, error) {
	return e.ExecuteOn(ctx, q, 0)
}

// ExecuteOn plans, schedules and runs a query on the given compute node,
// recovering from runtime faults in one loop. Every pass re-plans
// around the devices that are offline — degrading to the CPU-only plan
// in the worst case — re-admits the query and runs the admitted plan
// from a resume point: the failed run's latest completed checkpoint
// epoch when the new pipeline can take it (see resumeEpoch), epoch 0
// otherwise. A failed device (StageError naming it) was marked offline
// by the stage that lost it, so every later plan, this query's and
// others', avoids it; transient faults (link flaps, exhausted storage
// retry budgets) spend from Resilience.Budget first.
// DefaultMaxRecoveryAttempts bounds the runs. What the failed run
// charged past the resume point is reported as RecoveryBytes/
// RecoveryTime, so the answer's fabric stats are the work that produced
// it; what every run's reads cost at the object store stays on the
// query's account (Scan.ReadStats).
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
	var trips int64
	// One trace spans the whole query: a resume at epoch 0 drops the
	// spans so far and restarts the clock (ClearSpans) but keeps the
	// admit and recovery events, so the final timeline shows the
	// answer's execution plus the recovery history that led to it.
	var x execution
	if e.Tracing {
		x.tr = obs.New()
	}

	for attempt := 0; ; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, lifecycleError(err)
		}
		variants, err := e.Plan(q, node)
		if err != nil {
			return nil, err
		}
		adm, err := e.Scheduler.AdmitTraced(ctx, variants, x.tr)
		if err != nil {
			return nil, lifecycleError(err)
		}
		res, err := func() (*Result, error) {
			defer e.Scheduler.Release(adm)
			return e.executePlan(ctx, adm.Plan, &x)
		}()
		trips += e.reportBreakers(adm.Plan, err)
		if err == nil {
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
			// The device is offline now, so the next pass plans around it.
		case faults.IsTransient(err):
			// A re-run spends from the same global budget as read retries
			// and hedges, so a fault storm degrades to failing fast instead
			// of an unbounded retry storm.
			if e.Resilience != nil && !e.Resilience.Budget.TryAcquire() {
				return nil, fmt.Errorf("core: retry budget exhausted: %w", err)
			}
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

// execution is one query's state across the runs of ExecuteOn's
// recovery loop: the answer built so far, the run that failed last, and
// what recovering has cost.
type execution struct {
	tr *obs.Trace
	answer
	// failed is the run the next one resumes from; nil before any failure.
	failed *pipelineRun

	failovers, partials int // device failures resumed at epoch 0, past it
	retries             int64
	wasteBytes          sim.Bytes // what failed runs charged past their resume point
	wasteTime           sim.VTime
	replayed            sim.Bytes // the part of wasteBytes resumed past epoch 0
}

// answer is what the runs since the last resume at epoch 0 contributed
// to the result; a resume at epoch 0 starts it over.
type answer struct {
	batches     []*columnar.Batch
	scan        storage.ScanStats
	maxBatch    sim.Bytes
	checkpoints int
}

// pipelineRun is one pipeline run of the query: what the run after it
// needs, should it die, to resume from one of its checkpoints.
type pipelineRun struct {
	ph     *plan.Physical
	spec   storage.ScanSpec
	stages []flow.Placed
	acct   *fabric.Account
	ck     *flow.Checkpointer // nil when the run takes no checkpoints
	batch0 int                // len(answer.batches) when the run began
	err    error
}

// resumePoint is the watermark a checkpoint epoch records: the segment
// the scan resumes at and the run's account as of the epoch's mark.
type resumePoint struct {
	segment int
	acct    *fabric.Account
}

// waste sums the link payload and bottleneck busy time on acct — what a
// failed run charged past its resume point. Busy time is the effective
// (lane-divided) reading so replayed parallel work is not over-counted
// against the wall clock.
func waste(acct *fabric.Account) (sim.Bytes, sim.VTime) {
	st, busiest := fold(acct, nil)
	return st.MovedBytes, busiest
}

// ExecutePlan runs one specific physical plan variant once, bypassing
// the scheduler and recovery: a forced variant cannot be re-planned, so
// a caller that wants recovery calls Execute. Experiments use it to force
// variants. Tracing follows e.Tracing, with a fresh trace per call.
func (e *DataFlowEngine) ExecutePlan(ctx context.Context, ph *plan.Physical) (*Result, error) {
	startWall := e.Clock.Now()
	var x execution
	if e.Tracing {
		x.tr = obs.New()
	}
	res, err := e.executePlan(ctx, ph, &x)
	if err != nil {
		return nil, lifecycleError(err)
	}
	res.Stats.BreakerTrips = res.Stats.Scan.BreakerTrips
	e.publishQuery(ctx, res, startWall)
	return res, nil
}

// executePlan runs one physical plan as the query's next pipeline run,
// recording onto x.tr when non-nil. After a failed run it first resumes
// (see resume): from the failed run's latest completed epoch or from
// epoch 0. With PartialRestart on (and no aggregation state pushed into
// the storage processor) the run checkpoints at segment-aligned epoch
// markers, so the run after it, should this one die, can resume past
// epoch 0. A run that dies is left on x.failed.
func (e *DataFlowEngine) executePlan(ctx context.Context, ph *plan.Physical, x *execution) (*Result, error) {
	ctx = ctxOrBackground(ctx)
	q := ph.Query
	meta, err := e.Storage.Table(q.Table)
	if err != nil {
		return nil, err
	}
	tableSchema := meta.Schema
	spec, emitsPartials, err := e.buildScanSpec(ph, tableSchema.NumFields())
	if err != nil {
		return nil, err
	}
	spec.Workers = e.Workers
	stages, paths, err := e.buildStages(ph, spec, emitsPartials, tableSchema)
	if err != nil {
		return nil, err
	}
	r := pipelineRun{ph: ph, spec: spec, stages: stages}
	ep, restore := e.resume(x, &r)
	acct := r.acct
	spec = r.spec
	spec.Account = acct

	// The storage scan and the pipeline source share the trace's clock:
	// the scan advances it as it charges media/decode work, and the
	// source stamps every emitted batch with its reading, so downstream
	// stage spans replay against real scan progress.
	spec.Trace = x.tr

	// Pushed-down aggregation accumulates inside the storage processor,
	// out of reach of stage snapshots — no consistent cut exists, so such
	// plans take no checkpoints.
	var ck *flow.Checkpointer
	if e.PartialRestart && !emitsPartials {
		ck = flow.NewCheckpointer()
		// Each epoch's copy of the account is taken at Mark time in the
		// source, on Run's goroutine: an exact stream-positional cut, since
		// segments past the watermark have not been charged yet. Epochs
		// number on from the resumed one.
		segs, epoch := 0, ep
		spec.Progress = func(next int) error {
			if segs++; segs < checkpointSegments {
				return nil
			}
			segs = 0
			epoch++
			return ck.Mark(epoch, resumePoint{next, acct.Since(nil)})
		}
	}

	// The pipeline and what its source reports are one allocation.
	var run struct {
		pipe     flow.Pipeline
		maxBatch sim.Bytes // the largest batch the scan emitted
		scan     storage.ScanStats
	}
	run.pipe = flow.Pipeline{
		Name: e.pipelineName(ph.Variant),
		Source: func(emit flow.Emit) error {
			st, err := e.Storage.ScanPooled(ctx, q.Table, spec, func(b *columnar.Batch) error {
				run.maxBatch = max(run.maxBatch, sim.Bytes(b.ByteSize()))
				return emit(b)
			})
			run.scan = st
			return err
		},
		Stages:      stages,
		Paths:       paths,
		Workers:     e.Workers,
		Services:    e.Services,
		Trace:       x.tr,
		SourceTrack: e.Storage.Proc().Name,
		Ckpt:        ck,
		Restore:     restore,
		Account:     acct,
	}

	if x.batches == nil {
		// The sink appends on the last stage's goroutine, which starts on
		// a small stack: growing the list there would copy that stack. So
		// it is sized here, a batch for each segment the scan reads.
		x.batches = make([]*columnar.Batch, 0, max(len(e.Storage.SegmentKeys(meta))-spec.StartSegment, 1))
	}
	r.batch0 = len(x.batches)
	result := &Result{Batches: x.batches, Trace: x.tr}
	flowRes, err := run.pipe.Run(ctx, func(b *columnar.Batch) error {
		result.Batches = append(result.Batches, b)
		return nil
	})
	x.batches = result.Batches
	x.scan.Add(run.scan)
	x.maxBatch = max(x.maxBatch, run.maxBatch)
	x.checkpoints += ck.Completed()
	if err != nil {
		// A copy, so r itself stays off the heap on the fault-free path.
		r.err, r.ck = err, ck
		failed := r
		x.failed = &failed
		return nil, err
	}

	result.Stats = e.buildStats(ph, acct, flowRes, x.scan, x.maxBatch, result)
	st := &result.Stats
	st.Checkpoints = x.checkpoints
	st.QueryRetries, st.Failovers, st.PartialRestarts = x.retries, x.failovers, x.partials
	st.DegradedPlacement = x.failovers > 0 || x.partials > 0
	st.RecoveryBytes, st.RecoveryTime, st.ReplayedBytes = x.wasteBytes, x.wasteTime, x.replayed
	sampleMeterSeries(x.tr, acct)
	sampleHealthSeries(x.tr, e.Resilience)
	return result, nil
}

// pipelineName is "q-"+variant, made once an engine and variant rather
// than once a run: the pipeline's errors and port names carry it.
func (e *DataFlowEngine) pipelineName(variant string) string {
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, ok := e.names[variant]; !ok {
		e.names[variant] = "q-" + variant
	}
	return e.names[variant]
}

// resume starts run r where x.failed, the run that died before it, left
// off; with no failed run it starts at epoch 0. It picks the epoch
// (resumeEpoch), charges what the failed run did past that point to the
// query's recovery figures, counts the recovery and adds the one
// "recovery" trace event. It sets r.acct — a copy of the failed run's
// account as of the epoch's mark, or a fresh one at epoch 0 — and the
// scan segment r.spec resumes at, and returns the epoch and the
// snapshots to restore (nil at epoch 0).
func (e *DataFlowEngine) resume(x *execution, r *pipelineRun) (int, *flow.Restore) {
	f := x.failed
	x.failed = nil
	if f == nil {
		r.acct = e.Cluster.NewAccount()
		return 0, nil
	}
	ep := f.resumeEpoch(r)
	var restore *flow.Restore
	if ep > 0 {
		rp := f.ck.Resume(ep).(resumePoint)
		r.acct, r.spec.StartSegment = rp.acct, rp.segment
		restore = &flow.Restore{Epoch: ep, Snaps: f.ck.Snaps(ep)}
		// Roll the delivered output back to the epoch's sink watermark.
		x.batches = x.batches[:f.batch0+int(f.ck.SinkBatches(ep))]
	} else {
		r.acct = e.Cluster.NewAccount()
		x.tr.ClearSpans()
		x.answer = answer{scan: storage.ScanStats{ReadStats: x.scan.ReadStats}}
	}
	wb, wt := waste(f.acct.Since(r.acct))
	x.wasteBytes += wb
	x.wasteTime += wt
	if ep > 0 {
		x.replayed += wb
	}

	track := "engine"
	var se *flow.StageError
	switch {
	case !errors.As(f.err, &se) || se.Device == "":
		x.retries++
	case ep > 0:
		x.partials++
		track = se.Device
	default:
		x.failovers++
		track = se.Device
	}
	latest, _ := f.ck.Latest()
	x.tr.AddEvent(obs.Event{Name: "recovery", Track: track, At: x.tr.Now(),
		Detail: fmt.Sprintf("%v; latest complete epoch %d; resuming %s at epoch %d (segment %d)",
			f.err, latest, r.ph.Variant, ep, r.spec.StartSegment)})
	return ep, restore
}

// resumeEpoch is the epoch run r resumes from after f died: f's latest
// completed epoch when f took checkpoints, its source's host is not what
// failed, and r streams the same batches through stages of the same
// operator classes in the same order. Snapshots are restored by stage
// index, and flow.Pipeline.Run checks their count and that each stage
// can restore one. Over one scan spec, one query's operator classes
// build the same stages up to where they run, so the rule compares the
// classes, not Name(): a pre-aggregation's name carries its device's
// state budget, and the restored aggregator keeps the snapshot's.
// Otherwise 0.
func (f *pipelineRun) resumeEpoch(r *pipelineRun) int {
	ep, ok := f.ck.Latest()
	var se *flow.StageError
	switch {
	case !ok:
		return 0
	case errors.As(f.err, &se) && se.Device == f.ph.Path.Sites[0].Device.Name:
		return 0
	case !sameStream(f.spec, r.spec) || len(f.stages) != len(r.stages):
		return 0
	}
	for i, st := range f.stages {
		if st.Op != r.stages[i].Op {
			return 0
		}
	}
	return ep
}

// sameStream reports whether two scan specs of one query decide the
// stream the same way: the same batches, so one's watermark is the
// other's.
func sameStream(a, b storage.ScanSpec) bool {
	return slices.Equal(a.Projection, b.Projection) && a.Filter == b.Filter &&
		a.Pushdown == b.Pushdown && a.EncodedEval == b.EncodedEval && a.PreAgg == b.PreAgg
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
	var resultBytes sim.Bytes
	for _, b := range res.Batches {
		resultBytes += sim.Bytes(b.ByteSize())
	}
	st.PeakMemory = maxBatch*sim.Bytes(flow.DefaultDepth) + resultBytes + sim.Bytes(res.Rows())*expr.StateSize
	return st
}
