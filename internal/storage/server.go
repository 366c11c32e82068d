package storage

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/columnar"
	"repro/internal/encoding"
	"repro/internal/expr"
	"repro/internal/fabric"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/resilience"
	"repro/internal/sim"
)

// TableMeta describes one table stored as a series of segment objects.
type TableMeta struct {
	Name        string
	Schema      *columnar.Schema
	SegmentKeys []string
	NumRows     int64
}

// ScanSpec describes one scan request sent to the storage server.
// Column indices refer to the table schema.
type ScanSpec struct {
	// Projection lists the columns to return, in order; nil means all.
	Projection []int
	// Filter restricts returned rows; nil means none.
	Filter expr.Predicate
	// PreAgg, when non-nil, asks the storage processor to pre-aggregate
	// (Section 4.4). The scan then emits partial batches
	// (expr.PartialSchema) instead of raw rows, and Projection is
	// ignored.
	PreAgg *expr.GroupBy
	// Pushdown executes Filter/Projection/PreAgg on the storage
	// processor (Figure 2). Without it the scan ships every needed
	// column of every live row and filtering happens at the consumer.
	Pushdown bool
	// EncodedEval, with Pushdown, evaluates the filter directly on the
	// encoded columns (predicate kernels over bit-packed/delta streams
	// and dictionary codes) and then gather-decodes only the surviving
	// rows of only the projected columns — late materialization. The
	// processor's decode meter is charged for the bytes actually
	// touched instead of the full segment. Segments whose type/codec
	// pair has no kernel fall back to decode-then-eval; emitted rows
	// and bytes are bit-identical either way. Ignored without Pushdown,
	// without a Filter, or with PreAgg (the aggregator needs dense raw
	// batches).
	EncodedEval bool
	// Trace, when non-nil, records media reads, the media link transfer,
	// decode, and pushed-down operator work as virtual-time spans, plus
	// retry events. The scan replays its own internal pipeline onto the
	// trace: media read-ahead, link DMA and processor work each serialize
	// on their own track but overlap across segments, exactly as the
	// smart storage server streams. Clock is advanced to the processor's
	// frontier before each emit, so a consumer stamping emitted batches
	// with its reading sees when each batch actually left the processor;
	// the engines set both together (nil = tracing off).
	Trace *obs.Trace
	Clock *obs.VClock
	// StartSegment resumes the scan at the given segment index, skipping
	// earlier segments without reading or charging for them. A partial
	// restart sets it to the last completed checkpoint's watermark.
	StartSegment int
	// Progress, when non-nil, is called after each segment has been
	// fully handled (emitted or pruned) with the index of the next
	// segment — the watermark a restarted scan can resume from. With
	// pushed-down pre-aggregation the watermark does not capture state
	// still held by the storage processor; callers that checkpoint must
	// not combine the two. Returning an error aborts the scan.
	Progress func(nextSegment int) error
	// Workers > 1 scans with a pool of that many workers, clamped to the
	// storage processor's replicated units (fabric.Device.Units). Each
	// worker claims segments from a shared counter — the morsel is one
	// segment — reads, decodes and (with pushdown) filters and projects
	// it, charging the processor's per-worker lanes; a reorder buffer on
	// the caller's goroutine then emits batches and reports Progress in
	// strict segment order, so results, stats, checkpoint watermarks and
	// metered totals are identical to a serial scan. The media device
	// stays a serial resource (its lanes collapse to one) and the media
	// link's bandwidth is shared by every worker — only the per-command
	// NVMe latency overlaps, up to the link's queue depth
	// (Account.TransferQD) — so scaling workers cannot outrun the media:
	// that is the honesty floor of the model. Tracing and pushed-down pre-aggregation force a
	// serial scan: their internal frontiers and aggregation state are
	// order-sensitive. Under a seeded fault injector the read *arrival*
	// order varies with workers, so which segment a fault lands on may
	// differ run to run; recovery heals it either way and the emitted
	// rows are unchanged.
	Workers int
	// Account, when non-nil, is the query's account: everything the scan
	// charges the media, the media link and the processor is recorded on
	// it, lane by lane. Nil charges the devices' meters only.
	Account *fabric.Account
}

// DefaultBatchRows bounds the rows per emitted batch, so consumers
// stream with bounded in-flight memory.
const DefaultBatchRows = 4096

// ShippedColumns reports which table-schema columns the scan's emitted
// batches contain, in order. With pushdown it is the projection; without,
// the union of projection and filter columns in ascending table order.
// Consumers use it to rebase predicates onto the shipped batches.
func (spec ScanSpec) ShippedColumns(numFields int) []int {
	projection := spec.Projection
	if projection == nil {
		projection = allIndices(numFields)
	}
	if spec.Pushdown {
		return projection
	}
	return neededColumns(numFields, projection, spec.Filter, spec.PreAgg, false)
}

// ScanStats reports what one scan did, the per-experiment evidence for
// the data-movement claims.
type ScanStats struct {
	SegmentsTotal  int
	SegmentsPruned int
	MediaBytes     sim.Bytes // encoded bytes read from media
	ShippedBytes   sim.Bytes // payload bytes leaving the storage server
	ShippedRows    int64

	// Encoded-evaluation accounting. EncodedEvalSegments counts
	// segments whose filter ran on encoded data; DecodedBytes is what
	// the processor actually streamed through its decoder, and
	// DecodedBytesSaved is the decode work late materialization avoided
	// versus eager full-column decode (E23's headline number).
	EncodedEvalSegments int64
	DecodedBytes        sim.Bytes
	DecodedBytesSaved   sim.Bytes

	// Speculation accounting (parallel scans with a resilience policy):
	// morsels re-issued because they ran past the straggler threshold,
	// how many of those duplicates finished first, and the media bytes
	// the losing copies read before cancellation caught them. Logical
	// totals (MediaBytes, rows) count each segment exactly once — the
	// winner's read — while the losers' real device charges surface
	// here.
	SpeculativeMorsels int64
	SpeculativeWins    int64
	SpeculativeBytes   sim.Bytes

	// ReadStats is the scan's account at the object store: what its
	// segment reads — every copy of every morsel, delivered or not —
	// cost beyond their clean payloads.
	ReadStats
}

// Add folds o — one segment's share of a scan, or one attempt's scan of
// a restarted query — into s, counter by counter.
func (s *ScanStats) Add(o ScanStats) {
	s.SegmentsTotal += o.SegmentsTotal
	s.SegmentsPruned += o.SegmentsPruned
	s.MediaBytes += o.MediaBytes
	s.ShippedBytes += o.ShippedBytes
	s.ShippedRows += o.ShippedRows
	s.EncodedEvalSegments += o.EncodedEvalSegments
	s.DecodedBytes += o.DecodedBytes
	s.DecodedBytesSaved += o.DecodedBytesSaved
	s.SpeculativeMorsels += o.SpeculativeMorsels
	s.SpeculativeWins += o.SpeculativeWins
	s.SpeculativeBytes += o.SpeculativeBytes
	s.ReadStats.Add(o.ReadStats)
}

// scanPipe replays one scan's internal three-stage pipeline onto a
// trace: media reads, media-link DMA and processor work (decode plus
// pushed-down operators) each serialize on their own resource frontier
// but run ahead of one another across segments — segment k+1 is read
// while segment k decodes, which is how the storage server actually
// streams and what the repo's bottleneck-based SimTime model assumes.
type scanPipe struct {
	tr    *obs.Trace
	clock *obs.VClock

	mediaFree sim.VTime
	linkFree  sim.VTime
	procFree  sim.VTime
}

func (p *scanPipe) span(name, track string, kind obs.SpanKind, start, cost sim.VTime, seq int64, n sim.Bytes) sim.VTime {
	end := start + cost
	p.tr.AddSpan(obs.Span{Name: name, Track: track, Kind: kind,
		Start: start, End: end, Seq: seq, Bytes: n})
	return end
}

// segment replays one segment's read -> DMA -> first-processor-step
// chain ("decode" on the eager path, the encoded-filter kernel on the
// encoded-eval path). Each step starts when both its predecessor for
// this segment and its own resource are free.
func (p *scanPipe) segment(seq int64, n sim.Bytes, media, proc, procStep string, link *fabric.Link, readCost, xferCost, procCost sim.VTime) {
	p.mediaFree = p.span("read", media, obs.SpanScan, p.mediaFree, readCost, seq, n)
	ready := p.mediaFree
	if link != nil {
		start := ready
		if p.linkFree > start {
			start = p.linkFree
		}
		p.linkFree = p.span("xfer", link.Name, obs.SpanTransfer, start, xferCost, seq, n)
		ready = p.linkFree
	}
	start := ready
	if p.procFree > start {
		start = p.procFree
	}
	p.procFree = p.span(procStep, proc, obs.SpanScan, start, procCost, seq, n)
}

// procOp replays one pushed-down operator, serialized on the processor.
func (p *scanPipe) procOp(name, proc string, cost sim.VTime, seq int64, n sim.Bytes) {
	p.procFree = p.span(name, proc, obs.SpanStage, p.procFree, cost, seq, n)
}

// sync advances the shared clock to the processor frontier — the moment
// the batch about to be emitted actually became available downstream.
func (p *scanPipe) sync() {
	if d := p.procFree - p.clock.Now(); d > 0 {
		p.clock.Advance(d)
	}
}

// Server is the storage node: an object store behind media and an
// in-storage processor. Whether the processor may execute pushed-down
// work is a property of the device's capabilities, so the same server
// code serves both the smart and the legacy experiments.
type Server struct {
	mu     sync.RWMutex
	store  *ObjectStore
	tables map[string]*TableMeta

	media     *fabric.Device
	proc      *fabric.Device
	mediaLink *fabric.Link

	// SegmentRows is the number of rows per segment for newly ingested
	// data.
	SegmentRows int
}

// NewServer wires a storage server onto fabric devices: media (charged
// OpScan), proc (charged decode and pushed-down ops) and the media->proc
// link.
func NewServer(store *ObjectStore, media, proc *fabric.Device, mediaLink *fabric.Link) *Server {
	return &Server{
		store:       store,
		tables:      make(map[string]*TableMeta),
		media:       media,
		proc:        proc,
		mediaLink:   mediaLink,
		SegmentRows: 1 << 16,
	}
}

// foldScanMetrics lands one finished scan's stats on the store's
// registry as fleet counters (the non-zero counters of its ReadStats as
// scan.<name>) plus a scan.shipped.bytes rolling rate. Nil is off and
// costs nothing on the scan path — the fold happens once per scan, not
// per segment. Media bytes here are winner-only (losing hedges and
// cancelled speculative morsels meter separately), so fleet byte totals
// never double-charge defensive work.
func (s *Server) foldScanMetrics(st *ScanStats) {
	m := s.store.svc.Metrics
	if m == nil {
		return
	}
	m.Counter("scan.count").Inc()
	m.Counter("scan.segments").Add(int64(st.SegmentsTotal))
	m.Counter("scan.segments.pruned").Add(int64(st.SegmentsPruned))
	m.Counter("scan.media.bytes").Add(int64(st.MediaBytes))
	m.Counter("scan.shipped.bytes").Add(int64(st.ShippedBytes))
	m.Counter("scan.shipped.rows").Add(st.ShippedRows)
	m.Counter("scan.encoded.segments").Add(int64(st.EncodedEvalSegments))
	m.Counter("scan.decoded.bytes").Add(int64(st.DecodedBytes))
	m.Counter("scan.decoded.bytes.saved").Add(int64(st.DecodedBytesSaved))
	m.Counter("scan.speculative.morsels").Add(st.SpeculativeMorsels)
	m.Counter("scan.speculative.wins").Add(st.SpeculativeWins)
	m.Counter("scan.speculative.bytes").Add(int64(st.SpeculativeBytes))
	st.ReadStats.publish(m, "scan.")
	m.RateMeter("scan.shipped.bytes.rate").Mark(s.store.svc.Clock.Now(), int64(st.ShippedBytes))
}

// Proc exposes the in-storage processor device.
func (s *Server) Proc() *fabric.Device { return s.proc }

// Store exposes the backing object store.
func (s *Server) Store() *ObjectStore { return s.store }

// CreateTable registers an empty table. Creating an existing table is an
// error.
func (s *Server) CreateTable(name string, schema *columnar.Schema) (*TableMeta, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.tables[name]; dup {
		return nil, fmt.Errorf("storage: table %q already exists", name)
	}
	t := &TableMeta{Name: name, Schema: schema}
	s.tables[name] = t
	return t, nil
}

// DropTable removes a table and its segment objects.
func (s *Server) DropTable(name string) {
	s.mu.Lock()
	t := s.tables[name]
	delete(s.tables, name)
	s.mu.Unlock()
	if t != nil {
		for _, k := range t.SegmentKeys {
			s.store.Delete(k)
		}
	}
}

// Table returns the metadata of a table, or an error if unknown.
func (s *Server) Table(name string) (*TableMeta, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	t, ok := s.tables[name]
	if !ok {
		return nil, fmt.Errorf("storage: unknown table %q", name)
	}
	return t, nil
}

// SegmentKeys returns the table's segment keys as of now. Append only
// ever adds to the list, so the snapshot stays a valid prefix while an
// ingest runs beside the scan that holds it.
func (s *Server) SegmentKeys(t *TableMeta) []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return t.SegmentKeys
}

// Tables lists table names in sorted order.
func (s *Server) Tables() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	names := make([]string, 0, len(s.tables))
	for n := range s.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Append ingests a batch into the table, splitting it into segments of
// SegmentRows rows.
func (s *Server) Append(table string, b *columnar.Batch) error {
	t, err := s.Table(table)
	if err != nil {
		return err
	}
	if !b.Schema().Equal(t.Schema) {
		return fmt.Errorf("storage: batch schema %s does not match table %s", b.Schema(), t.Schema)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for off := 0; off < b.NumRows(); off += s.SegmentRows {
		end := off + s.SegmentRows
		if end > b.NumRows() {
			end = b.NumRows()
		}
		segID := len(t.SegmentKeys)
		seg := BuildSegment(segID, b.Slice(off, end))
		key := fmt.Sprintf("%s/seg-%06d", table, segID)
		s.store.Put(key, seg.Marshal())
		t.SegmentKeys = append(t.SegmentKeys, key)
		t.NumRows += int64(end - off)
	}
	return nil
}

// Scan executes a scan, invoking emit once per produced batch in segment
// order. The emitted batch schema is the projected table schema, or the
// partial-aggregation schema when PreAgg is set.
//
// Faulty reads recover in two layers: the object store retries transient
// faults and falls back across replicas, and the scan itself re-reads a
// segment whose blob fails checksum verification (a corrupt replica or
// an in-flight bit flip), re-charging the media for every extra read so
// the recovery cost is visible in the meters and in ScanStats.
//
// The scan checks ctx between segments: a cancelled or deadline-expired
// context stops the scan promptly with ctx's error, charging nothing
// further.
func (s *Server) Scan(ctx context.Context, table string, spec ScanSpec, emit func(*columnar.Batch) error) (stats ScanStats, err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	defer s.foldScanMetrics(&stats)
	t, err := s.Table(table)
	if err != nil {
		return stats, err
	}
	if spec.Pushdown {
		if err := s.checkPushdown(spec); err != nil {
			return stats, err
		}
	}

	projection := spec.Projection
	if projection == nil {
		projection = allIndices(t.Schema.NumFields())
	}
	needed := neededColumns(t.Schema.NumFields(), projection, spec.Filter, spec.PreAgg, spec.Pushdown)
	pos := make(map[int]int, len(needed)) // table index -> decoded position
	for i, c := range needed {
		pos[c] = i
	}
	rebase := func(c int) int { return pos[c] }

	var filter expr.Predicate
	if spec.Filter != nil {
		filter = expr.Rebase(spec.Filter, rebase)
	}
	var preagg *expr.PartialAggregator
	if spec.Pushdown && spec.PreAgg != nil {
		decodedSchema := t.Schema.Project(needed)
		budget := int(s.proc.StateBudget / expr.StateSize)
		if s.proc.StateBudget == 0 {
			budget = 0
		}
		preagg = expr.NewPartialAggregator(spec.PreAgg.Rebase(rebase), decodedSchema, budget)
	}

	// Positions of the projection within the decoded batch.
	projPos := make([]int, len(projection))
	for i, c := range projection {
		projPos[i] = pos[c]
	}

	keys := s.SegmentKeys(t)
	stats.SegmentsTotal = len(keys) - spec.StartSegment
	if stats.SegmentsTotal < 0 {
		stats.SegmentsTotal = 0
	}

	sc := &segScan{
		s: s, t: t, keys: keys, spec: spec, needed: needed, projection: projection, projPos: projPos,
		filter: filter, preagg: preagg, emit: emit, stats: &stats,
	}
	if spec.Trace != nil {
		sc.pipe = &scanPipe{tr: spec.Trace, clock: spec.Clock}
	}

	workers := min(spec.Workers, s.proc.Units())
	if sc.pipe != nil || preagg != nil {
		// The trace pipeline's resource frontiers and the pushed-down
		// aggregator's state are order-sensitive; keep those scans serial.
		workers = 1
	}
	if workers > 1 {
		if err := sc.scanParallel(ctx, workers); err != nil {
			return stats, err
		}
	} else {
		// Width 1 is the same two functions with nothing in between,
		// inline on the caller's goroutine.
		for idx := spec.StartSegment; idx < len(keys); idx++ {
			if err := ctx.Err(); err != nil {
				return stats, err
			}
			if err := sc.deliver(sc.processSegment(ctx, idx, 0)); err != nil {
				return stats, err
			}
		}
	}

	if preagg != nil {
		if tail := preagg.Flush(); tail != nil {
			if err := sc.emitTracked(tail); err != nil {
				return stats, err
			}
		}
	}
	return stats, nil
}

// segScan is one Scan's per-segment machinery. processSegment is the
// part any worker may run — read, prune, filter, project, charging the
// lane it is given; deliver is the order-sensitive part — stats,
// pre-aggregation, emission, Progress — and always runs on Scan's own
// goroutine, in segment order. A serial scan calls one after the other;
// a parallel scan puts a worker pool and a reorder buffer in between.
type segScan struct {
	s    *Server
	t    *TableMeta
	keys []string // t's segment keys when the scan started
	spec ScanSpec

	needed     []int          // table columns to decode, ascending
	projection []int          // table columns to return
	projPos    []int          // positions of projection within the decoded batch
	filter     expr.Predicate // spec.Filter rebased onto the decoded batch
	preagg     *expr.PartialAggregator
	pipe       *scanPipe // nil unless tracing (which forces width 1)

	emit  func(*columnar.Batch) error
	stats *ScanStats
}

// segResult is one completed morsel copy, primary or speculative.
type segResult struct {
	seg int
	out *columnar.Batch // nil when pruned
	sub ScanStats       // this segment's share of the scan's stats
	err error
	dup bool // a speculative re-execution, not the primary copy
}

// procSpan replays one pushed-down operator's work on the storage
// processor's track, serialized behind the segment's decode.
func (sc *segScan) procSpan(name string, seg int, c sim.VTime, n sim.Bytes) {
	if sc.pipe != nil {
		sc.pipe.procOp(name, sc.s.proc.Name, c, int64(seg), n)
	}
}

// processSegment runs one copy of segment idx end to end — read/decode
// and, with pushdown, filter and project — charging the processor's
// given lane, and returns its result message.
func (sc *segScan) processSegment(ctx context.Context, idx, lane int) segResult {
	r := segResult{seg: idx}
	r.out, r.err = sc.readSegmentRetry(ctx, idx, lane, &r.sub)
	if r.err == nil && r.out == nil {
		r.sub.SegmentsPruned++
	}
	return r
}

// deliver lands one segment's result, in segment order: its stats, its
// rows — through the pushed-down aggregator when there is one — and the
// Progress watermark past it.
func (sc *segScan) deliver(r segResult) error {
	sc.stats.Add(r.sub)
	switch {
	case r.err != nil:
		return r.err
	case r.out == nil:
	case sc.preagg != nil:
		n := sim.Bytes(r.out.ByteSize())
		sc.procSpan("preagg@storage", r.seg, sc.spec.Account.Charge(sc.s.proc, fabric.OpPreAgg, n), n)
		for _, spill := range sc.preagg.AddRaw(r.out) {
			if err := sc.emitTracked(spill); err != nil {
				return err
			}
		}
	case r.out.NumRows() > 0:
		if err := sc.emitTracked(r.out); err != nil {
			return err
		}
	}
	if sc.spec.Progress == nil {
		return nil
	}
	return sc.spec.Progress(r.seg + 1)
}

// emitTracked ships one batch to the consumer in DefaultBatchRows
// granules.
func (sc *segScan) emitTracked(b *columnar.Batch) error {
	if sc.pipe != nil {
		sc.pipe.sync()
	}
	sc.stats.ShippedBytes += sim.Bytes(b.ByteSize())
	sc.stats.ShippedRows += int64(b.NumRows())
	for off := 0; off < b.NumRows(); off += DefaultBatchRows {
		end := min(off+DefaultBatchRows, b.NumRows())
		if err := sc.emit(b.Slice(off, end)); err != nil {
			return err
		}
	}
	return nil
}

// readSegmentRetry wraps readSegment in the corrupt-blob retry loop:
// only checksum-detected corruption is worth re-reading — a fresh read
// may hit a clean replica or a clean wire — while other errors (missing
// object, exhausted transient budget) have already been through the
// store's own retry machinery and surface as-is.
func (sc *segScan) readSegmentRetry(ctx context.Context, idx, lane int, stats *ScanStats) (*columnar.Batch, error) {
	s, key := sc.s, sc.keys[idx]
	for attempt := 0; ; attempt++ {
		out, segErr := sc.readSegment(ctx, idx, lane, attempt, stats)
		if segErr == nil {
			return out, nil
		}
		if !errors.Is(segErr, encoding.ErrCorrupt) || attempt >= s.store.MaxRetries {
			return nil, fmt.Errorf("storage: %s: %w", key, segErr)
		}
		stats.Retries++
		if sc.spec.Trace != nil {
			sc.spec.Trace.AddEvent(obs.Event{Name: "retry", Track: s.media.Name,
				At: sc.spec.Clock.Now(), Detail: fmt.Sprintf("%s: %v", key, segErr)})
		}
		if err := s.store.backoff(ctx, attempt); err != nil {
			return nil, err
		}
	}
}

// morselState tracks one in-flight morsel for straggler detection: when
// it started, the per-morsel cancel shared by its copies (cancelling it
// stops whichever copy lost the race), and whether a duplicate has been
// issued.
type morselState struct {
	start      time.Time
	ctx        context.Context
	cancel     context.CancelFunc
	speculated bool
	done       bool
}

// specState is the shared straggler-detection state of one parallel
// scan: an EWMA over completed-morsel wall time plus the in-flight set.
// Workers that exhaust the segment counter turn into speculators,
// re-issuing the oldest morsel that has run past SpecMultiple x the
// EWMA (budget permitting) and racing it against the stuck copy.
type specState struct {
	pol *resilience.Policy

	mu       sync.Mutex
	inflight map[int]*morselState
	ewma     float64 // nanoseconds over completed morsels
	samples  int
	launched int64
	wake     chan struct{} // closed and replaced on every completion

	denied atomic.Int64 // duplicates the retry budget refused
}

func newSpecState(pol *resilience.Policy) *specState {
	return &specState{pol: pol, inflight: make(map[int]*morselState),
		wake: make(chan struct{})}
}

// register notes a morsel starting at instant start and returns the
// context its copies run under.
func (st *specState) register(seg int, parent context.Context, start time.Time) context.Context {
	mctx, cancel := context.WithCancel(parent)
	st.mu.Lock()
	st.inflight[seg] = &morselState{start: start, ctx: mctx, cancel: cancel}
	st.mu.Unlock()
	return mctx
}

// markDone records a morsel copy finishing. Successful completions feed
// the EWMA; a done morsel is never speculated on.
func (st *specState) markDone(seg int, elapsed time.Duration, ok bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	ms := st.inflight[seg]
	if ms == nil || ms.done {
		return
	}
	ms.done = true
	// Broadcast to sleeping speculators: the in-flight set changed, so
	// their wait deadlines are stale — in particular, the last completion
	// must release them immediately rather than after a full poll sleep.
	close(st.wake)
	st.wake = make(chan struct{})
	if !ok {
		return
	}
	x := float64(elapsed)
	if st.samples == 0 {
		st.ewma = x
	} else {
		st.ewma += 0.2 * (x - st.ewma)
	}
	st.samples++
}

// sleepWake sleeps on clk for at most d, returning early when ctx ends
// (with its error) or when any morsel completes (nil) — so an idle
// speculator never outlives the scan by a poll interval.
func (st *specState) sleepWake(ctx context.Context, clk *sim.Clock, d time.Duration) error {
	st.mu.Lock()
	wake := st.wake
	st.mu.Unlock()
	select {
	case <-clk.After(d):
		return nil
	case <-wake:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// copies reports how many result messages seg will eventually produce.
func (st *specState) copies(seg int) int {
	st.mu.Lock()
	defer st.mu.Unlock()
	if ms := st.inflight[seg]; ms != nil && ms.speculated {
		return 2
	}
	return 1
}

// cancelSeg cancels the morsel's shared context, stopping the copy that
// lost the race (the winner has already returned).
func (st *specState) cancelSeg(seg int) {
	st.mu.Lock()
	ms := st.inflight[seg]
	st.mu.Unlock()
	if ms != nil {
		ms.cancel()
	}
}

// cancelAll releases every morsel context at scan teardown.
func (st *specState) cancelAll() {
	st.mu.Lock()
	defer st.mu.Unlock()
	for _, ms := range st.inflight {
		ms.cancel()
	}
}

// pick claims the most overdue unspeculated morsel, or reports how long
// to wait before rechecking. Returns seg = -1 with wait > 0 when
// nothing is overdue yet, and seg = -1 with wait = 0 when no morsel is
// left in flight.
func (st *specState) pick(now time.Time) (int, *morselState, time.Duration) {
	st.mu.Lock()
	defer st.mu.Unlock()
	threshold := time.Duration(resilience.SpecMultiple * st.ewma)
	if threshold < st.pol.HedgeMinDelay {
		threshold = st.pol.HedgeMinDelay
	}
	warm := st.samples >= resilience.SpecMinSamples
	var (
		bestSeg  = -1
		bestMS   *morselState
		bestAge  time.Duration
		wait     time.Duration
		anyAlive bool
	)
	for seg, ms := range st.inflight {
		if ms.done || ms.speculated {
			continue
		}
		anyAlive = true
		age := now.Sub(ms.start)
		if warm && age > threshold {
			if bestMS == nil || age > bestAge {
				bestSeg, bestMS, bestAge = seg, ms, age
			}
			continue
		}
		d := threshold - age
		if !warm || d < 50*time.Microsecond {
			d = 50 * time.Microsecond
		}
		if d > 5*time.Millisecond {
			d = 5 * time.Millisecond
		}
		if wait == 0 || d < wait {
			wait = d
		}
	}
	if bestMS != nil {
		bestMS.speculated = true
		return bestSeg, bestMS, 0
	}
	if !anyAlive {
		return -1, nil, 0
	}
	return -1, nil, wait
}

// scanParallel is the morsel-parallel scan body. Workers claim segment
// indices from a shared counter and run the per-segment read/decode
// (and, with pushdown, filter/project) pipeline, charging the devices'
// positional lanes (lane = segment mod workers, so lane busy is
// independent of goroutine scheduling). Everything order-sensitive —
// batch emission, Progress watermarks, stats folding — happens on the
// caller's goroutine behind a reorder buffer, so a parallel scan is
// observably identical to a serial one apart from wall time and the
// per-lane busy split.
//
// With a resilience policy that enables speculation, workers that run
// out of fresh segments linger as speculators: a morsel running past
// SpecMultiple x the EWMA of completed morsels is re-issued (one token
// of retry budget per duplicate) and the first finisher wins. The
// reorder buffer delivers each segment exactly once — the first result
// per segment — and cancels the loser, whose media bytes land in
// SpeculativeBytes instead of the logical totals, so result rows and
// MediaBytes are identical to an unspeculated scan.
func (sc *segScan) scanParallel(ctx context.Context, workers int) error {
	s, spec, stats := sc.s, sc.spec, sc.stats
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	clk := s.store.svc.Clock
	var st *specState
	if pol := s.store.svc.Resilience; pol != nil && pol.Speculate {
		st = newSpecState(pol)
		defer st.cancelAll()
	}

	var next atomic.Int64
	next.Store(int64(spec.StartSegment))
	results := make(chan segResult, 2*workers+2)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				idx := int(next.Add(1) - 1)
				if idx >= len(sc.keys) {
					break
				}
				if ctx.Err() != nil {
					return
				}
				mctx := ctx
				var start time.Time
				if st != nil {
					start = clk.Now()
					mctx = st.register(idx, ctx, start)
				}
				r := sc.processSegment(mctx, idx, idx%workers)
				if st != nil {
					st.markDone(idx, clk.Since(start), r.err == nil)
				}
				// The consumer below drains results until it is closed,
				// so a send never blocks for good — and every copy's
				// account arrives, whatever became of the scan.
				results <- r
				if st != nil && r.err == nil {
					// First finisher: stop a racing duplicate, if any.
					st.cancelSeg(idx)
				}
			}
			if st == nil {
				return
			}
			// Out of fresh morsels: speculate on stragglers until none
			// remain in flight.
			for {
				if ctx.Err() != nil {
					return
				}
				seg, ms, wait := st.pick(clk.Now())
				if seg < 0 {
					if wait == 0 {
						return
					}
					if st.sleepWake(ctx, clk, wait) != nil {
						return
					}
					continue
				}
				if !st.pol.Budget.TryAcquire() {
					// Retry budget exhausted: serve slow rather than
					// amplify.
					st.denied.Add(1)
					return
				}
				st.mu.Lock()
				st.launched++
				st.mu.Unlock()
				r := sc.processSegment(ms.ctx, seg, seg%workers)
				r.dup = true
				results <- r
				if r.err == nil {
					st.cancelSeg(seg)
				}
			}
		}()
	}
	go func() { wg.Wait(); close(results) }()

	pend := make(map[int]segResult, workers)
	delivered := make(map[int]bool, workers)
	arrived := make(map[int]int, workers)
	want := spec.StartSegment
	var firstErr error
	fail := func(err error) {
		if firstErr == nil {
			firstErr = err
		}
		cancel() // stop the workers; keep draining results below
	}
	for r := range results {
		// Every copy's reads are the scan's, delivered or not: a losing
		// duplicate, a failed twin and a morsel finished after the scan
		// failed all spent their retries and hedges on this query.
		stats.ReadStats.Add(r.sub.ReadStats)
		r.sub.ReadStats = ReadStats{}
		if firstErr != nil {
			continue
		}
		if delivered[r.seg] {
			// The losing copy of a speculated morsel: its real device
			// charges stand, but logically only its media bytes are
			// reported — as speculation overhead, never as scan totals.
			stats.SpeculativeBytes += r.sub.MediaBytes
			continue
		}
		arrived[r.seg]++
		if r.err != nil && st != nil && st.copies(r.seg) > arrived[r.seg] {
			// This copy failed but its twin is still running; the twin
			// may yet deliver the segment.
			continue
		}
		delivered[r.seg] = true
		if r.dup && r.err == nil {
			stats.SpeculativeWins++
		}
		pend[r.seg] = r
		for {
			cur, ok := pend[want]
			if !ok {
				break
			}
			delete(pend, want)
			if err := sc.deliver(cur); err != nil {
				fail(err)
				break
			}
			want++
		}
	}
	if st != nil {
		st.mu.Lock()
		stats.SpeculativeMorsels += st.launched
		st.mu.Unlock()
		stats.RetryBudgetExhausted += st.denied.Load()
	}
	if firstErr != nil {
		return firstErr
	}
	// Workers bail out between segments when the caller's context ends;
	// surface that instead of silently under-scanning.
	return ctx.Err()
}

// readSegment is one attempt at segment idx: fetch the blob, unmarshal
// it, prune-check (a pruned segment returns a nil batch), charge the
// media for the needed columns, then evaluate them on the processor —
// on encoded data when the scan asks for it and kernels exist, eagerly
// otherwise. Either way the batch comes back filtered and projected as
// far as the spec pushes down. Charges land on the devices' positional
// lanes (serial scans pass lane 0; the media and its link have one unit,
// so their lanes collapse either way). Corruption surfaces as an error
// wrapping encoding.ErrCorrupt for the retry loop; re-reads (attempt >
// 0) charge the media again and count toward RetryBytes, so recovery
// shows up as real extra work in the meters.
func (sc *segScan) readSegment(ctx context.Context, idx, lane, attempt int, stats *ScanStats) (*columnar.Batch, error) {
	s, spec, needed := sc.s, sc.spec, sc.needed
	blob, err := s.store.Read(ctx, sc.keys[idx], false, &stats.ReadStats)
	if err != nil {
		return nil, err
	}
	if attempt > 0 {
		stats.RetryBytes += sim.Bytes(len(blob))
	}
	seg, err := UnmarshalSegment(blob)
	if err != nil {
		return nil, err
	}
	if s.pruned(seg, spec.Filter) {
		return nil, nil
	}

	// Media reads only the needed column chunks (columnar layout +
	// range reads), then the processor decodes them.
	var encoded sim.Bytes
	for _, c := range needed {
		encoded += sim.Bytes(seg.Columns[c].EncodedSize())
	}
	stats.MediaBytes += encoded
	readCost := spec.Account.ChargeLane(s.media, fabric.OpScan, encoded, lane)
	var xferCost sim.VTime
	if s.mediaLink != nil {
		// Queue-depth transfer: NVMe keeps Units() commands in flight,
		// so per-command latency overlaps across workers while the
		// sequential bandwidth stays a serial floor.
		xferCost = spec.Account.TransferQD(s.mediaLink, encoded, lane)
		// JitterLink is a gray failure on the media link: the transfer
		// still delivers, but Severity x the store's healthy service
		// time is slept on the store's clock — the phenomenon hedging and
		// speculation defend against. A nil injector adds nothing.
		if extra := s.store.svc.Faults.Slowdown(faults.JitterLink, s.mediaLink.Name, s.store.BaseLatency); extra > 0 {
			if err := s.store.svc.Clock.Sleep(ctx, extra); err != nil {
				return nil, err
			}
		}
	}

	if spec.encodedEvalActive() {
		out, hit, encErr := sc.segmentEncodedEval(seg, idx, lane, encoded, readCost, xferCost, stats)
		if hit || encErr != nil {
			return out, encErr
		}
		// No kernel for some leaf: decode-then-eval for this segment.
	}
	return sc.segmentEagerEval(seg, idx, lane, encoded, readCost, xferCost, stats)
}

// segmentEagerEval is decode-then-eval for one segment: decode every
// needed column, then — with pushdown — filter and project on the
// processor, charging its given lane.
func (sc *segScan) segmentEagerEval(seg *Segment, idx, lane int, encoded sim.Bytes, readCost, xferCost sim.VTime, stats *ScanStats) (*columnar.Batch, error) {
	proc, spec := sc.s.proc, sc.spec
	decodeCost := spec.Account.ChargeLane(proc, fabric.OpDecompress, encoded, lane)
	stats.DecodedBytes += encoded
	if sc.pipe != nil {
		sc.pipe.segment(int64(idx), encoded, sc.s.media.Name, proc.Name, "decode",
			sc.s.mediaLink, readCost, xferCost, decodeCost)
	}
	batch, err := seg.DecodeColumns(sc.needed)
	if err != nil {
		return nil, err
	}
	if spec.Pushdown && sc.filter != nil {
		n := seg.ColumnDecodedSize(spec.Filter.Columns())
		sc.procSpan("filter@storage", idx, spec.Account.ChargeLane(proc, fabric.OpFilter, n, lane), n)
		batch = batch.Filter(sc.filter.Eval(batch))
	}
	// Without pushdown the consumer evaluates the filter, so every
	// needed column ships in sorted table order; with pushdown only the
	// projection leaves the node — unless the processor pre-aggregates,
	// which deliver does over every decoded column.
	if spec.Pushdown && sc.preagg == nil {
		batch = batch.Project(sc.projPos)
		if len(sc.projection) < sc.t.Schema.NumFields() {
			n := sim.Bytes(batch.ByteSize())
			sc.procSpan("project@storage", idx, spec.Account.ChargeLane(proc, fabric.OpProject, n, lane), n)
		}
	}
	return batch, nil
}

// encodedEvalActive reports whether this scan runs filters on encoded
// columns with late materialization.
func (spec ScanSpec) encodedEvalActive() bool {
	return spec.Pushdown && spec.EncodedEval && spec.Filter != nil && spec.PreAgg == nil
}

// segmentEncodedEval is the late-materialization fast path for one
// segment: evaluate the filter on the encoded columns (charging the
// processor's filter meter for the encoded bytes it streams), then
// gather-decode only the surviving rows of only the projected columns
// (charging the decode meter for the bytes actually touched). hit=false
// means some type/codec leaf has no kernel and the caller must eager-
// decode instead; nothing has been charged to the processor in that
// case. The returned batch is already filtered and projected, value-
// identical to the eager path's output.
func (sc *segScan) segmentEncodedEval(seg *Segment, idx, lane int, encoded sim.Bytes, readCost, xferCost sim.VTime, stats *ScanStats) (*columnar.Batch, bool, error) {
	s, spec, projection := sc.s, sc.spec, sc.projection
	bm, ok, err := expr.EvalEncoded(spec.Filter, func(c int) *encoding.EncodedColumn {
		if c < 0 || c >= len(seg.Columns) {
			return nil
		}
		return seg.Columns[c]
	})
	if err != nil {
		return nil, false, err
	}
	if !ok {
		return nil, false, nil
	}

	var encFilter sim.Bytes
	for _, c := range spec.Filter.Columns() {
		encFilter += sim.Bytes(seg.Columns[c].EncodedSize())
	}
	filterCost := spec.Account.ChargeLane(s.proc, fabric.OpFilter, encFilter, lane)

	k := bm.Count()
	var gather sim.Bytes
	for _, c := range projection {
		gather += sim.Bytes(seg.Columns[c].GatherBytes(k))
	}
	decodeCost := spec.Account.ChargeLane(s.proc, fabric.OpDecompress, gather, lane)

	vecs := make([]*columnar.Vector, len(projection))
	for i, c := range projection {
		v, derr := seg.Columns[c].DecodeFiltered(bm)
		if derr != nil {
			return nil, false, derr
		}
		vecs[i] = v
	}
	out := columnar.BatchOf(seg.Schema.Project(projection), vecs...)

	stats.EncodedEvalSegments++
	stats.DecodedBytes += gather
	if encoded > gather {
		stats.DecodedBytesSaved += encoded - gather
	}
	if sc.pipe != nil {
		sc.pipe.segment(int64(idx), encoded, s.media.Name, s.proc.Name, "filter@storage[enc]",
			s.mediaLink, readCost, xferCost, filterCost)
		sc.procSpan("gather@storage", idx, decodeCost, gather)
	}
	return out, true, nil
}

// checkPushdown verifies the processor can host the requested offloads,
// surfacing planner mistakes as errors rather than silent fallbacks.
func (s *Server) checkPushdown(spec ScanSpec) error {
	if spec.Filter != nil && !s.proc.Can(fabric.OpFilter) {
		return fmt.Errorf("storage: processor %s cannot execute pushed-down filters", s.proc.Name)
	}
	if needsRegex(spec.Filter) && !s.proc.Can(fabric.OpRegexMatch) {
		return fmt.Errorf("storage: processor %s cannot execute pushed-down LIKE", s.proc.Name)
	}
	if spec.PreAgg != nil && !s.proc.Can(fabric.OpPreAgg) {
		return fmt.Errorf("storage: processor %s cannot execute pushed-down pre-aggregation", s.proc.Name)
	}
	return nil
}

func needsRegex(p expr.Predicate) bool {
	switch t := p.(type) {
	case nil:
		return false
	case *expr.Like:
		return true
	case *expr.And:
		for _, sub := range t.Preds {
			if needsRegex(sub) {
				return true
			}
		}
	case *expr.Or:
		for _, sub := range t.Preds {
			if needsRegex(sub) {
				return true
			}
		}
	case *expr.Not:
		return needsRegex(t.Pred)
	}
	return false
}

// pruned reports whether zone maps prove no row of seg matches filter.
func (s *Server) pruned(seg *Segment, filter expr.Predicate) bool {
	if filter == nil {
		return false
	}
	for _, col := range filter.Columns() {
		if seg.Schema.Fields[col].Type != columnar.Int64 {
			continue
		}
		if lo, hi, ok := expr.IntRange(filter, col); ok && seg.PruneInt(col, lo, hi) {
			return true
		}
	}
	return false
}

// neededColumns is the set of table columns a scan decodes: the
// projection plus the filter's and the pre-aggregation's columns.
// Without pushdown the consumer evaluates the filter, so its columns
// must ship too.
func neededColumns(numFields int, projection []int, filter expr.Predicate, preagg *expr.GroupBy, pushdown bool) []int {
	if preagg != nil && pushdown {
		// Pre-agg replaces projection entirely.
		if cols := expr.ColumnSet(numFields, filter, preagg, nil); cols != nil {
			return cols
		}
		// A pure COUNT(*) pre-aggregation touches no columns; one
		// narrow column must still be decoded to drive row counts.
		return []int{0}
	}
	return expr.ColumnSet(numFields, filter, preagg, projection)
}
