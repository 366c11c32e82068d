package storage

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/columnar"
	"repro/internal/encoding"
	"repro/internal/expr"
	"repro/internal/fabric"
	"repro/internal/faults"
	"repro/internal/morsel"
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
	// smart storage server streams. The trace's clock is advanced to the
	// processor's frontier before each emit, so a consumer stamping
	// emitted batches with its reading sees when each batch actually left
	// the processor (nil = tracing off).
	Trace *obs.Trace
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
	// storage processor's replicated units (fabric.Device.Units). The
	// scan's one loop, morsel.Start, has them claim segments — the morsel
	// is one segment — and read, decode and (with pushdown) filter and
	// project each on the processor's lane segment mod workers; the
	// caller's goroutine emits batches and reports Progress in segment
	// order, so results, stats, watermarks and metered totals are a serial
	// scan's. The media and its link stay serial: only the per-command
	// NVMe latency overlaps, up to the link's queue depth
	// (Account.TransferQD), so workers cannot outrun the media. Tracing
	// and pushed-down pre-aggregation, whose frontiers and state are
	// order-sensitive, force width 1. Under a seeded fault injector which
	// segment a fault lands on may vary with workers; recovery heals it
	// either way and the emitted rows are unchanged.
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
	// the late copies started because a morsel outran its timer (see
	// segScan.morsel), how many of those won and were delivered, and
	// the media bytes the losing copies read before cancellation caught
	// them. Logical totals (MediaBytes, rows) count each segment exactly
	// once — the winner's read — while the losers' real device charges
	// surface here.
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
	tr *obs.Trace

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

// sync advances the trace's clock to the processor frontier — the
// moment the batch about to be emitted actually became available
// downstream.
func (p *scanPipe) sync() {
	if d := p.procFree - p.tr.Now(); d > 0 {
		p.tr.Advance(d)
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

	// pool is the one every ScanPooled run on the server decodes from: a
	// set comes back once every batch cut from it has been released,
	// during its run or after.
	pool columnar.Pool
	// views are the segment views no scan attempt holds (readSegment).
	// Not a lane's: a speculated morsel runs two copies on one lane.
	viewMu sync.Mutex
	views  []*Segment
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
	_, err := s.AppendSummary(table, b)
	return err
}

// AppendSummary is Append that also returns, for each segment it wrote in
// order, the column summaries WriteSegment took while encoding it: what
// the planner's statistics are folded from without walking the batch
// again. The blob WriteSegment writes is the one the store keeps.
func (s *Server) AppendSummary(table string, b *columnar.Batch) ([][]encoding.WriteSummary, error) {
	t, err := s.Table(table)
	if err != nil {
		return nil, err
	}
	if !b.Schema().Equal(t.Schema) {
		return nil, fmt.Errorf("storage: batch schema %s does not match table %s", b.Schema(), t.Schema)
	}
	var sums [][]encoding.WriteSummary
	s.mu.Lock()
	defer s.mu.Unlock()
	for off := 0; off < b.NumRows(); off += s.SegmentRows {
		end := off + s.SegmentRows
		if end > b.NumRows() {
			end = b.NumRows()
		}
		segID := len(t.SegmentKeys)
		blob, sum := WriteSegment(segID, b.Slice(off, end))
		key := fmt.Sprintf("%s/seg-%06d", table, segID)
		s.store.install(key, blob)
		t.SegmentKeys = append(t.SegmentKeys, key)
		t.NumRows += int64(end - off)
		sums = append(sums, sum)
	}
	return sums, nil
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
//
// Every batch emitted is the caller's to keep.
func (s *Server) Scan(ctx context.Context, table string, spec ScanSpec, emit func(*columnar.Batch) error) (ScanStats, error) {
	return s.scan(ctx, table, spec, emit, nil)
}

// ScanPooled is Scan for a consumer that releases every batch it is
// handed (columnar.Batch.Release) — a pipeline whose stages end the
// batches they fold or drop — and keeps none it has released. The eager
// path decodes a segment into arrays from the server's pool, and they
// are decoded into again, by this run or a later one, once every batch
// emitted from the segment has been released.
func (s *Server) ScanPooled(ctx context.Context, table string, spec ScanSpec, emit func(*columnar.Batch) error) (ScanStats, error) {
	return s.scan(ctx, table, spec, emit, &s.pool)
}

// view lends a free segment view, a new one when none is free.
func (s *Server) view() *Segment {
	s.viewMu.Lock()
	defer s.viewMu.Unlock()
	if k := len(s.views) - 1; k >= 0 {
		v := s.views[k]
		s.views = s.views[:k]
		return v
	}
	return new(Segment)
}

// putView hands a segment view back, its columns' Data and Nulls
// cleared: a free view holds no blob alive, and a late read of one that
// is not yet lent again fails its CRC.
func (s *Server) putView(v *Segment) {
	block := v.block[:cap(v.block)] // a narrower open left the rest
	for i := range block {
		block[i].Data, block[i].Nulls = nil, nil
	}
	s.viewMu.Lock()
	s.views = append(s.views, v)
	s.viewMu.Unlock()
}

// PoolStats reports what the pool ScanPooled decodes from holds and has
// done (columnar.Pool.Stats).
func (s *Server) PoolStats() (free, peak, made int) { return s.pool.Stats() }

func (s *Server) scan(ctx context.Context, table string, spec ScanSpec, emit func(*columnar.Batch) error, pool *columnar.Pool) (stats ScanStats, err error) {
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
	// Every segment's schema is the table's (AppendSummary checks), so the
	// batches a scan makes take their schemas from here, projected once a
	// scan, not from each segment.
	decoded := t.Schema.Project(needed)
	var projected *columnar.Schema
	if spec.encodedEvalActive() {
		projected = t.Schema.Project(projection)
	}
	var preagg *expr.PartialAggregator
	if spec.Pushdown && spec.PreAgg != nil {
		budget := int(s.proc.StateBudget / expr.StateSize)
		preagg = expr.NewPartialAggregator(spec.PreAgg.Rebase(rebase), decoded, budget)
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
		filter: filter, preagg: preagg, emit: emit, stats: &stats, pool: pool, decoded: decoded, projected: projected,
	}
	if spec.Filter != nil {
		sc.filterCols = spec.Filter.Columns()
	}
	if spec.Trace != nil {
		// The frontiers start where the trace's clock stands: a run resumed
		// past epoch 0 draws after the run it replaces.
		now := spec.Trace.Now()
		sc.pipe = &scanPipe{tr: spec.Trace, mediaFree: now, linkFree: now, procFree: now}
	}

	workers := min(spec.Workers, s.proc.Units())
	if sc.pipe != nil || preagg != nil {
		// The trace pipeline's resource frontiers and the pushed-down
		// aggregator's state are order-sensitive; keep those scans serial.
		workers = 1
	}
	// A morsel is processSegment itself unless the scan speculates, which
	// a serial one never does: a late copy needs a second worker.
	run := sc.processSegment
	if pol := s.store.svc.Resilience; workers > 1 && pol != nil && pol.Speculate {
		ewma := resilience.NewTracker(0.2, resilience.SpecMinSamples) // over this scan's completed morsels
		run = func(ctx context.Context, idx, lane int) segResult { return sc.morsel(ctx, idx, lane, ewma) }
	}
	morsels := morsel.Start(ctx, spec.StartSegment, len(keys), workers, run)
	defer morsels.Stop(sc.drop)
	for r, ok := morsels.Next(); ok; r, ok = morsels.Next() {
		if err := sc.deliver(r); err != nil {
			return stats, err
		}
	}
	// The stream ends early when the caller's context does; surface that
	// instead of silently under-scanning.
	if err := ctx.Err(); err != nil {
		return stats, err
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
// goroutine, in segment order. morsel.Start runs the one after the
// other at width 1 and puts a worker pool and a reorder buffer between
// them at width N.
type segScan struct {
	s    *Server
	t    *TableMeta
	keys []string // t's segment keys when the scan started
	spec ScanSpec

	needed     []int          // table columns to decode, ascending
	projection []int          // table columns to return
	projPos    []int          // positions of projection within the decoded batch
	filter     expr.Predicate // spec.Filter rebased onto the decoded batch
	filterCols []int          // spec.Filter's table columns
	preagg     *expr.PartialAggregator
	pipe       *scanPipe        // nil unless tracing (which forces width 1)
	pool       *columnar.Pool   // the eager path decodes from it; nil but in ScanPooled
	decoded    *columnar.Schema // the eager path's batch schema
	projected  *columnar.Schema // the encoded path's; nil when the scan is eager

	emit  func(*columnar.Batch) error
	stats *ScanStats
}

// segResult is one completed segment: a morsel, or one copy of it.
type segResult struct {
	seg int
	out *columnar.Batch // nil when pruned
	sub ScanStats       // this segment's share of the scan's stats
	err error
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
// given lane, and returns its result message. A segment that fails its
// checksum is read again (resilience.Retry, on the store's terms): a
// fresh read may hit a clean replica or wire. Other errors have been
// through the store's own retries already.
func (sc *segScan) processSegment(ctx context.Context, idx, lane int) segResult {
	r := segResult{seg: idx}
	s, key := sc.s, sc.keys[idx]
	var segErr error
	retries, denied, err := resilience.Retry(ctx, s.store.svc.Clock, s.store.budget(), s.store.MaxRetries, s.store.RetryBase, func(n int) (bool, error) {
		if p := sc.pipe; p != nil && n > 0 {
			// The retry follows the check that failed, and the re-read
			// follows the retry: both at the later of the two frontiers.
			p.mediaFree = max(p.mediaFree, p.procFree)
			p.tr.AddEvent(obs.Event{Name: "retry", Track: s.media.Name,
				At: p.mediaFree, Detail: fmt.Sprintf("%s: %v", key, segErr)})
		}
		if r.out, segErr = sc.readSegment(ctx, idx, lane, n, &r.sub); segErr != nil {
			return errors.Is(segErr, encoding.ErrCorrupt), fmt.Errorf("storage: %s: %w", key, segErr)
		}
		return false, nil
	})
	r.sub.Retries += int64(retries)
	if denied {
		r.sub.RetryBudgetExhausted++
	}
	if r.err = err; r.err == nil && r.out == nil {
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
		spills := sc.preagg.AddRaw(r.out)
		r.out.Release()
		for _, spill := range spills {
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

// drop settles a morsel the scan never delivered — it failed, or
// finished after the scan did: its reads were spent on this query all
// the same, and its batch goes back to the pool unseen.
func (sc *segScan) drop(r segResult) {
	sc.stats.ReadStats.Add(r.sub.ReadStats)
	if r.out != nil {
		r.out.Release()
	}
}

// emitTracked ships one batch to the consumer in DefaultBatchRows
// granules, each its consumer's to release (columnar.Batch.Share).
func (sc *segScan) emitTracked(b *columnar.Batch) error {
	if sc.pipe != nil {
		sc.pipe.sync()
	}
	// b is not read once its last granule is out: that granule's consumer
	// may release it at once.
	rows := b.NumRows()
	sc.stats.ShippedBytes += sim.Bytes(b.ByteSize())
	sc.stats.ShippedRows += int64(rows)
	b.Share((rows + DefaultBatchRows - 1) / DefaultBatchRows)
	for off := 0; off < rows; off += DefaultBatchRows {
		end := min(off+DefaultBatchRows, rows)
		if err := sc.emit(b.Slice(off, end)); err != nil {
			return err
		}
	}
	return nil
}

// morsel runs segment idx on its lane in a scan that speculates, racing
// it (resilience.Race) against a late copy of itself. The copy's
// timer is fixed when the morsel starts, like a hedged read's delay:
// SpecMultiple x the EWMA of the scan's completed morsels, at least
// HedgeMinDelay, once SpecMinSamples of them back it — a morsel that
// starts earlier is never copied. The first copy to succeed is the
// morsel's result; the other is cancelled, its reads join the result's
// account and its media bytes SpeculativeBytes, so rows and MediaBytes
// count the winner's read alone. Without a winner the result is the
// last failure.
func (sc *segScan) morsel(ctx context.Context, idx, lane int, ewma *resilience.Tracker) segResult {
	run := func(ctx context.Context) segResult { return sc.processSegment(ctx, idx, lane) }
	pol, clk := sc.s.store.svc.Resilience, sc.s.store.svc.Clock
	start := clk.Now()
	var late <-chan time.Time
	if avg, ok := ewma.Latency(""); ok {
		late = clk.After(max(time.Duration(resilience.SpecMultiple*float64(avg)), pol.HedgeMinDelay))
	}
	var out segResult
	won := false
	launched, denied := resilience.Race(ctx, late, pol.Budget, run, run, func(r segResult, second bool) bool {
		// Until a copy wins, the newest result is the morsel's; the one
		// it displaces, and any arriving after the win, lost.
		keep, lost := out, r
		if !won {
			keep, lost = r, out
		}
		keep.sub.ReadStats.Add(lost.sub.ReadStats)
		keep.sub.SpeculativeBytes += lost.sub.MediaBytes
		if lost.out != nil {
			lost.out.Release() // never emitted: its arrays go back to the pool
		}
		out = keep
		if won || r.err != nil {
			return false
		}
		won = true
		if second {
			out.sub.SpeculativeWins++
		}
		ewma.Observe("", clk.Since(start))
		return true
	})
	if launched {
		out.sub.SpeculativeMorsels++
	}
	if denied {
		out.sub.RetryBudgetExhausted++
	}
	return out
}

// readSegment is one attempt at segment idx: fetch the blob, open it
// into a view the server lends for the attempt, prune-check (a pruned
// segment returns a nil batch), charge the media for the needed columns,
// then evaluate them on the processor — on encoded data when the scan
// asks for it and kernels exist, eagerly otherwise. Either way the batch
// comes back filtered and projected as far as the spec pushes down.
// Charges land on the devices' positional lanes (serial scans pass lane
// 0; the media and its link have one unit, so their lanes collapse
// either way). Corruption surfaces as an error wrapping
// encoding.ErrCorrupt, which processSegment retries; re-reads (attempt >
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
	seg := s.view()
	defer s.putView(seg)
	if err := openSegment(seg, blob); err != nil {
		return nil, err
	}
	if sc.pruned(seg) {
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
	batch, err := seg.decodeColumns(sc.needed, sc.decoded, sc.pool)
	if err != nil {
		return nil, err
	}
	if spec.Pushdown && sc.filter != nil {
		n := seg.ColumnDecodedSize(sc.filterCols)
		sc.procSpan("filter@storage", idx, spec.Account.ChargeLane(proc, fabric.OpFilter, n, lane), n)
		decoded := batch
		batch = batch.Filter(sc.filter.Eval(batch))
		decoded.Release()
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
	for _, c := range sc.filterCols {
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
	out := columnar.BatchOf(sc.projected, vecs...)

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

// pruned reports whether zone maps prove no row of seg matches the
// scan's filter.
func (sc *segScan) pruned(seg *Segment) bool {
	for _, col := range sc.filterCols {
		if seg.Schema.Fields[col].Type != columnar.Int64 {
			continue
		}
		if lo, hi, ok := expr.IntRange(sc.spec.Filter, col); ok && seg.PruneInt(col, lo, hi) {
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
