package main

import (
	"context"
	"fmt"
	"hash/crc32"
	"runtime"
	"time"

	"repro/internal/columnar"
	"repro/internal/core"
	"repro/internal/encoding"
	"repro/internal/expr"
	"repro/internal/fabric"
	"repro/internal/flow"
	"repro/internal/plan"
	"repro/internal/storage"
	"repro/internal/workload"
)

// The traced pass replays a workload's op decomposed into calls to the
// exported functions of each layer, with a span recorded by the harness
// around every call:
//
//	op
//	├─ plan.enumerate          DataFlowEngine.Plan
//	├─ sched.admit_release     Scheduler.Admit + Release
//	├─ storage.scan            Server.Scan with the plan's ScanSpec
//	├─ segments                per segment of the table:
//	│   ├─ storage.read        ObjectStore.GetNoCopy
//	│   ├─ storage.unmarshal   UnmarshalSegment
//	│   ├─ encoding.checksum   hash/crc32 over the needed columns' bytes
//	│   ├─ encoding.eval       expr.EvalEncoded of the predicate
//	│   ├─ encoding.gather     DecodeFiltered of the output columns
//	│   ├─ encoding.decode     Segment.DecodeColumns of the needed columns
//	│   ├─ expr.pred           Predicate.Eval on the decoded batch
//	│   ├─ columnar.filter     Batch.Filter with that bitmap
//	│   ├─ columnar.bytesize   Batch.ByteSize
//	│   ├─ expr.agg            PartialAggregator.AddRaw, PricingSummary
//	│   └─ expr.agg_highcard   PartialAggregator.AddRaw, PartVolume
//	├─ exec.stages             the plan's stages run synchronously
//	├─ flow.run                Pipeline.Run over the scan's batches
//	├─ core.executeplan        DataFlowEngine.ExecutePlan
//	└─ core.execute            DataFlowEngine.Execute
//
// followed by one "aux" tree (op_id -1) for what is not part of the op:
// the write path, the port micro-pipeline, Device.Charge, and the same
// query with tracing on, with eager decode, with two workers and on the
// Volcano baseline. Layer times are busy times of calls made one after
// another; they are not a partition of the op's wall time.
type layerPass struct {
	fx  *fixture
	w   *benchWorkload
	tr  *tracer
	ctx context.Context

	meta     *storage.TableMeta
	variants []*plan.Physical
	ph       *plan.Physical
	spec     storage.ScanSpec
	partials bool
	needed   []int // columns the query touches
	outCols  []int // columns it returns or aggregates

	err               error // first call that failed; later spans are skipped
	attempted, failed int   // results compared with the oracle
	firstMiss         error

	// Taken from the last traced op.
	scan     storage.ScanStats
	exec     core.ExecStats
	captured []*columnar.Batch

	ops                     int // traced ops recorded
	decodeAllocs, aggAllocs uint64
	segments, aggRows       int64
}

// aggCols are the lineitem columns the two aggregation kernels read.
var aggCols = []int{workload.LPartKey, workload.LQuantity, workload.LExtendedPrice, workload.LDiscount, workload.LReturnFlag}

// span runs fn inside a span. After the first error every later span is
// skipped, so callers check lp.err once a value they need is missing.
func (lp *layerPass) span(name, layer string, parent int, fn func() (rows, bytes int64, err error)) {
	if lp.err != nil {
		return
	}
	id := lp.tr.begin(name, layer, parent)
	rows, bytes, err := fn()
	lp.tr.end(id, rows, bytes)
	if err != nil {
		lp.err = fmt.Errorf("%s: %w", name, err)
	}
}

// verify compares result batches with the workload's oracle.
func (lp *layerPass) verify(what string, batches []*columnar.Batch) {
	if lp.err != nil {
		return
	}
	lp.attempted++
	if err := lp.w.ref.checkBatches(batches); err != nil {
		lp.failed++
		if lp.firstMiss == nil {
			lp.firstMiss = fmt.Errorf("%s: %w", what, err)
		}
	}
}

func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// queryColumns lists the table columns a query touches and the ones it
// hands on after the filter.
func queryColumns(q *plan.Query, numFields int) (needed, out []int) {
	switch {
	case q.CountOnly:
		c := 0
		if q.Filter != nil {
			c = q.Filter.Columns()[0]
		}
		return []int{c}, []int{c}
	case q.GroupBy != nil:
		needed = touchedColumns(q, numFields)
		return needed, needed
	}
	out = q.Projection
	if out == nil {
		for c := 0; c < numFields; c++ {
			out = append(out, c)
		}
	}
	used := make([]bool, numFields)
	for _, c := range out {
		used[c] = true
	}
	if q.Filter != nil {
		for _, c := range q.Filter.Columns() {
			used[c] = true
		}
	}
	for c, u := range used {
		if u {
			needed = append(needed, c)
		}
	}
	return needed, out
}

func position(cols []int) func(int) int {
	return func(c int) int {
		for i, cc := range cols {
			if cc == c {
				return i
			}
		}
		return -1
	}
}

// tracedPass runs the decomposition for about budget and returns the
// per-layer metrics it yields. measuredMeanMs is the mean latency of the
// same Execute call in the measured phase, the base of the harness's own
// overhead; 0 where the measured op is not that call (ingest).
func tracedPass(fx *fixture, w *benchWorkload, budget time.Duration, measuredMeanMs float64) (map[string]float64, *layerPass, error) {
	lp := &layerPass{fx: fx, w: w, tr: newTracer(), ctx: context.Background()}
	eng := fx.eng
	var err error
	if lp.meta, err = eng.Storage.Table(w.table); err != nil {
		return nil, lp, err
	}
	if lp.variants, err = eng.Plan(w.query, 0); err != nil {
		return nil, lp, err
	}
	adm, err := eng.Scheduler.Admit(lp.ctx, lp.variants)
	if err != nil {
		return nil, lp, err
	}
	lp.ph = adm.Plan
	eng.Scheduler.Release(adm)
	if lp.spec, lp.partials, err = scanSpecFor(eng, lp.ph, lp.meta.Schema); err != nil {
		return nil, lp, err
	}
	lp.needed, lp.outCols = queryColumns(w.query, lp.meta.Schema.NumFields())

	start := time.Now()
	for ; lp.ops < 2 || lp.ops < 16 && time.Since(start) < budget*55/100; lp.ops++ {
		lp.tr.opID = lp.ops
		lp.tracedOp()
		if lp.err != nil {
			return nil, lp, lp.err
		}
	}
	lp.tr.opID = -1
	aux := lp.auxPass(budget - time.Since(start))
	if lp.err != nil {
		return nil, lp, lp.err
	}
	lp.tr.fillSelf()

	tr := lp.tr
	stagesMs := tr.perOp("exec.stages") / 1e6
	runMs := tr.perOp("flow.run") / 1e6
	// Execute and ExecutePlan are also alternated in the aux pass; their
	// difference is small, so it is taken over all of those samples.
	planMs := tr.perCall("core.executeplan") / 1e6
	execMs := tr.perCall("core.execute") / 1e6
	var data, credit, stalls int64
	for _, p := range lp.exec.Ports {
		data += p.DataMessages
		credit += p.CreditMessages
		stalls += p.CreditStalls
	}
	busyUs := func(devs ...string) float64 {
		var us float64
		for _, d := range devs {
			us += float64(lp.exec.DeviceBusy[d]) / 1e3
		}
		return us
	}
	pruned := 0.0
	if lp.scan.SegmentsTotal > 0 {
		pruned = 100 * float64(lp.scan.SegmentsPruned) / float64(lp.scan.SegmentsTotal)
	}
	layer := map[string]float64{
		"storage.scan_ms_per_op":             tr.perOp("storage.scan") / 1e6,
		"storage.read_ns_per_segment":        tr.perCall("storage.read"),
		"storage.unmarshal_us_per_segment":   tr.perCall("storage.unmarshal") / 1e3,
		"storage.media_bytes_per_op":         float64(lp.scan.MediaBytes),
		"storage.shipped_bytes_per_op":       float64(lp.scan.ShippedBytes),
		"storage.decoded_bytes_per_op":       float64(lp.scan.DecodedBytes),
		"storage.segments_pruned_pct":        pruned,
		"encoding.eval_ns_per_row":           tr.perRow("encoding.eval"),
		"encoding.gather_ns_per_row":         tr.perRow("encoding.gather"),
		"encoding.decode_ns_per_row":         tr.perRow("encoding.decode"),
		"encoding.decode_allocs_per_segment": float64(lp.decodeAllocs) / float64(max(lp.segments, 1)),
		"encoding.checksum_ns_per_row":       tr.perRow("encoding.checksum"),
		"columnar.filter_ns_per_row":         tr.perRow("columnar.filter"),
		"columnar.bytesize_ns_per_batch":     tr.perCall("columnar.bytesize"),
		"expr.pred_ns_per_row":               tr.perRow("expr.pred"),
		"expr.agg_ns_per_row":                tr.perRow("expr.agg"),
		"expr.agg_allocs_per_row":            float64(lp.aggAllocs) / float64(max(lp.aggRows, 1)),
		"expr.agg_highcard_ns_per_row":       tr.perRow("expr.agg_highcard"),
		"exec.stages_ms_per_op":              stagesMs,
		"flow.run_ms_per_op":                 runMs,
		"flow.overhead_ms_per_op":            max(0, runMs-stagesMs),
		"flow.data_msgs_per_op":              float64(data),
		"flow.credit_msgs_per_op":            float64(credit),
		"flow.credit_stalls_per_op":          float64(stalls),
		"plan.enumerate_us_per_op":           tr.perOp("plan.enumerate") / 1e3,
		"plan.variants":                      float64(len(lp.variants)),
		"sched.admit_release_us_per_op":      tr.perOp("sched.admit_release") / 1e3,
		"core.executeplan_ms_per_op":         planMs,
		"core.overhead_us_per_op":            max(0, execMs-planMs) * 1e3,
		"fabric.proc_busy_us_per_op":         busyUs(fabric.DevStorageProc),
		"fabric.cpu_busy_us_per_op":          busyUs(fabric.ComputeDev(0, "cpu")),
		"fabric.nic_busy_us_per_op":          busyUs(fabric.DevStorageNIC, fabric.ComputeDev(0, "nic")),
		"engine.harness_overhead_pct":        0,
	}
	if measuredMeanMs > 0 {
		layer["engine.harness_overhead_pct"] = 100 * (tr.mean("core.execute")/1e6/measuredMeanMs - 1)
	}
	for k, v := range aux {
		layer[k] = v
	}
	return layer, lp, nil
}

// tracedOp records one op's span tree.
func (lp *layerPass) tracedOp() {
	eng, q, tr := lp.fx.eng, lp.w.query, lp.tr
	schema := lp.meta.Schema
	root := tr.begin("op", "harness", -1)
	defer func() { tr.end(root, lp.w.inputRows, 0) }()

	lp.span("plan.enumerate", "plan", root, func() (int64, int64, error) {
		vs, err := eng.Plan(q, 0)
		return int64(len(vs)), 0, err
	})
	lp.span("sched.admit_release", "sched", root, func() (int64, int64, error) {
		adm, err := eng.Scheduler.Admit(lp.ctx, lp.variants)
		if err == nil {
			eng.Scheduler.Release(adm)
		}
		return 1, 0, err
	})
	lp.captured = lp.captured[:0]
	lp.span("storage.scan", "storage", root, func() (int64, int64, error) {
		st, err := eng.Storage.Scan(lp.ctx, lp.w.table, lp.spec, func(b *columnar.Batch) error {
			lp.captured = append(lp.captured, b)
			return nil
		})
		lp.scan = st
		return st.ShippedRows, int64(st.ShippedBytes), err
	})

	if lp.err != nil {
		return
	}
	segs := tr.begin("segments", "harness", root)
	lp.segmentLoop(segs, schema)
	tr.end(segs, lp.meta.NumRows, 0)
	if lp.err != nil {
		return
	}

	var out []*columnar.Batch
	sink := func(b *columnar.Batch) error { out = append(out, b); return nil }
	stages, paths, err := stagesFor(eng, lp.ph, lp.spec, lp.partials, schema)
	if err != nil {
		lp.err = err
		return
	}
	lp.span("exec.stages", "exec", root, func() (int64, int64, error) {
		return int64(len(lp.captured)), 0, runChain(stages, lp.captured, sink)
	})
	lp.verify("exec.stages", out)

	out = nil
	if stages, paths, err = stagesFor(eng, lp.ph, lp.spec, lp.partials, schema); err != nil {
		lp.err = err
		return
	}
	lp.span("flow.run", "flow", root, func() (int64, int64, error) {
		pipe := &flow.Pipeline{
			Name: "bench-" + lp.ph.Variant,
			Source: func(emit flow.Emit) error {
				for _, b := range lp.captured {
					if err := emit(b); err != nil {
						return err
					}
				}
				return nil
			},
			Stages: stages, Paths: paths, Workers: eng.Workers,
			SourceTrack: eng.Storage.Proc().Name,
		}
		res, err := pipe.Run(lp.ctx, sink)
		return res.SinkRows, int64(res.SinkBytes), err
	})
	lp.verify("flow.run", out)

	var res *core.Result
	lp.span("core.executeplan", "core", root, func() (int64, int64, error) {
		res, err = eng.ExecutePlan(lp.ctx, lp.ph)
		return resultSize(res, err)
	})
	lp.verifyResult("core.executeplan", res)
	lp.span("core.execute", "core", root, func() (int64, int64, error) {
		res, err = eng.Execute(lp.ctx, q)
		return resultSize(res, err)
	})
	lp.verifyResult("core.execute", res)
	if lp.err == nil {
		lp.exec = res.Stats
	}
}

func resultSize(res *core.Result, err error) (int64, int64, error) {
	if err != nil {
		return 0, 0, err
	}
	return res.Rows(), int64(res.Stats.MovedBytes), nil
}

func (lp *layerPass) verifyResult(what string, res *core.Result) {
	if lp.err == nil {
		lp.verify(what, res.Batches)
	}
}

// segmentLoop times the storage, encoding, columnar and expr kernels on
// every segment of the table, as children of span parent.
func (lp *layerPass) segmentLoop(parent int, schema *columnar.Schema) {
	store := lp.fx.eng.Storage.Store()
	filter := lp.w.query.Filter
	var rebased expr.Predicate
	if filter != nil {
		rebased = expr.Rebase(filter, position(lp.needed))
	}
	aggSchema := schema.Project(aggCols)
	low := expr.NewPartialAggregator(workload.PricingSummary().Rebase(position(aggCols)), aggSchema, 0)
	high := expr.NewPartialAggregator(workload.PartVolume().Rebase(position(aggCols)), aggSchema, 0)

	for _, key := range lp.meta.SegmentKeys {
		var blob []byte
		var seg *storage.Segment
		lp.span("storage.read", "storage", parent, func() (_, _ int64, err error) {
			blob, err = store.GetNoCopy(lp.ctx, key)
			return 1, int64(len(blob)), err
		})
		lp.span("storage.unmarshal", "storage", parent, func() (_, _ int64, err error) {
			seg, err = storage.UnmarshalSegment(blob)
			return 1, int64(len(blob)), err
		})
		if lp.err != nil {
			return
		}
		n := int64(seg.NumRows)
		lp.span("encoding.checksum", "encoding", parent, func() (int64, int64, error) {
			var bytes int64
			for _, c := range lp.needed {
				if crc32.ChecksumIEEE(seg.Columns[c].Data) != seg.Columns[c].Checksum {
					return 0, 0, encoding.ErrCorrupt
				}
				bytes += int64(len(seg.Columns[c].Data))
			}
			return n, bytes, nil
		})

		bm := columnar.NewBitmap(seg.NumRows)
		bm.Fill(0, seg.NumRows)
		if filter != nil {
			lp.span("encoding.eval", "encoding", parent, func() (int64, int64, error) {
				got, ok, err := expr.EvalEncoded(filter, func(c int) *encoding.EncodedColumn { return seg.Columns[c] })
				if err == nil && !ok {
					err = fmt.Errorf("no encoded kernel for %s", filter)
				}
				bm = got
				return n, 0, err
			})
			if lp.err != nil {
				return
			}
		}
		lp.span("encoding.gather", "encoding", parent, func() (int64, int64, error) {
			var bytes int64
			for _, c := range lp.outCols {
				if _, err := seg.Columns[c].DecodeFiltered(bm); err != nil {
					return 0, 0, err
				}
				bytes += seg.Columns[c].GatherBytes(bm.Count())
			}
			return int64(bm.Count()), bytes, nil
		})

		var batch *columnar.Batch
		m0 := mallocs()
		lp.span("encoding.decode", "encoding", parent, func() (_, _ int64, err error) {
			batch, err = seg.DecodeColumns(lp.needed)
			return n, int64(seg.ColumnDecodedSize(lp.needed)), err
		})
		lp.decodeAllocs += mallocs() - m0
		lp.segments++
		if lp.err != nil {
			return
		}
		if rebased != nil {
			var keep *columnar.Bitmap
			lp.span("expr.pred", "expr", parent, func() (int64, int64, error) {
				keep = rebased.Eval(batch)
				return n, 0, nil
			})
			lp.span("columnar.filter", "columnar", parent, func() (int64, int64, error) {
				batch = batch.Filter(keep)
				return n, 0, nil
			})
		}
		lp.span("columnar.bytesize", "columnar", parent, func() (int64, int64, error) {
			return 1, batch.ByteSize(), nil
		})

		// Both aggregation kernels read the same input on every workload:
		// the segment's aggCols, filtered by the workload's predicate.
		aggIn, err := seg.DecodeColumns(aggCols)
		if err != nil {
			lp.err = err
			return
		}
		aggIn = aggIn.Filter(bm)
		m0 = mallocs()
		lp.span("expr.agg", "expr", parent, func() (int64, int64, error) {
			low.AddRaw(aggIn)
			return int64(aggIn.NumRows()), 0, nil
		})
		lp.aggAllocs += mallocs() - m0
		lp.aggRows += int64(aggIn.NumRows())
		lp.span("expr.agg_highcard", "expr", parent, func() (int64, int64, error) {
			high.AddRaw(aggIn)
			return int64(aggIn.NumRows()), 0, nil
		})
	}
}

// scratchTable is where the write path is timed, so the workload's own
// table is left alone.
const scratchTable = "bench_scratch"

// An arm is one way of running the workload's query.
type arm struct {
	name string
	run  func() (*core.Result, error)
}

// alternate times two arms in turn, A B B A A B ..., for slice (3 to 100
// rounds), so that neither always runs in the other's wake. Every result
// is checked; the last result of each arm is returned.
func (lp *layerPass) alternate(parent int, slice time.Duration, a, b arm) (lastA, lastB *core.Result) {
	time1 := func(x arm, last **core.Result) {
		lp.span(x.name, "core", parent, func() (int64, int64, error) {
			res, err := x.run()
			if err != nil {
				return 0, 0, err
			}
			*last = res
			lp.verify(x.name, res.Batches)
			return resultSize(res, nil)
		})
	}
	start := time.Now()
	for i := 0; i < 3 || i < 100 && time.Since(start) < slice; i++ {
		if i%2 == 0 {
			time1(a, &lastA)
			time1(b, &lastB)
		} else {
			time1(b, &lastB)
			time1(a, &lastA)
		}
	}
	return lastA, lastB
}

// auxPass times what is not a step of the op itself.
func (lp *layerPass) auxPass(budget time.Duration) map[string]float64 {
	tr, eng := lp.tr, lp.fx.eng
	root := tr.begin("aux", "harness", -1)
	defer func() { tr.end(root, 0, 0) }()
	slice := budget / 6

	// The write path, over the rows of the table's first segment.
	blob, err := eng.Storage.Store().GetNoCopy(lp.ctx, lp.meta.SegmentKeys[0])
	if err != nil {
		lp.err = err
		return nil
	}
	seg, err := storage.UnmarshalSegment(blob)
	if err != nil {
		lp.err = err
		return nil
	}
	rows, err := seg.Decode()
	if err != nil {
		lp.err = err
		return nil
	}
	n := int64(rows.NumRows())
	for i := 0; i < 3; i++ {
		lp.span("encoding.encode", "encoding", root, func() (int64, int64, error) {
			var bytes int64
			for c := 0; c < rows.NumCols(); c++ {
				bytes += encoding.EncodeColumn(rows.Col(c)).EncodedSize()
			}
			return n, bytes, nil
		})
		built := storage.BuildSegment(0, rows)
		lp.span("storage.marshal", "storage", root, func() (int64, int64, error) {
			return n, int64(len(built.Marshal())), nil
		})
		if _, err := eng.Storage.CreateTable(scratchTable, lp.meta.Schema); err != nil {
			lp.err = err
			return nil
		}
		lp.span("storage.append", "storage", root, func() (int64, int64, error) {
			return n, 0, eng.Storage.Append(scratchTable, rows)
		})
		eng.Storage.DropTable(scratchTable)
	}

	// Three identity stages on one device: what a batch pays per port.
	const portBatches = 256
	scratch := fabric.NewCluster(fabric.DefaultClusterConfig()).ComputeCPU(0)
	one := rows.Slice(0, min(rows.NumRows(), 1024))
	for i := 0; i < 3; i++ {
		lp.span("flow.ports", "flow", root, func() (int64, int64, error) {
			pipe := &flow.Pipeline{
				Name: "bench-ports",
				Source: func(emit flow.Emit) error {
					for j := 0; j < portBatches; j++ {
						if err := emit(one); err != nil {
							return err
						}
					}
					return nil
				},
			}
			for j := 0; j < 3; j++ {
				pipe.Stages = append(pipe.Stages, flow.Placed{Stage: identityStage{}, Device: scratch, Op: fabric.OpScan})
			}
			res, err := pipe.Run(lp.ctx, func(*columnar.Batch) error { return nil })
			return res.SinkBatches, 0, err
		})
	}

	const charges = 200000
	lp.span("fabric.charge", "fabric", root, func() (int64, int64, error) {
		for i := 0; i < charges; i++ {
			scratch.Charge(fabric.OpFilter, 4096)
		}
		return charges, 0, nil
	})

	// The same query through ExecutePlan and under three engine settings,
	// each alternated with the default so that drift hits both sides alike.
	execute := func() (*core.Result, error) { return eng.Execute(lp.ctx, lp.w.query) }
	with := func(set, unset func()) func() (*core.Result, error) {
		return func() (*core.Result, error) {
			set()
			defer unset()
			return execute()
		}
	}
	lp.alternate(root, slice, arm{"core.execute", execute},
		arm{"core.executeplan", func() (*core.Result, error) { return eng.ExecutePlan(lp.ctx, lp.ph) }})
	lp.alternate(root, slice, arm{"tracing.off", execute},
		arm{"tracing.on", with(func() { eng.Tracing = true }, func() { eng.Tracing = false })})
	encoded, eager := lp.alternate(root, slice, arm{"decode.encoded", execute},
		arm{"decode.eager", with(func() { eng.EagerDecode = true }, func() { eng.EagerDecode = false })})
	lp.alternate(root, slice, arm{"workers.1", execute},
		arm{"workers.2", with(func() { eng.Workers = 2 }, func() { eng.Workers = 1 })})
	if lp.err != nil {
		return nil
	}
	simRatio := float64(encoded.Stats.SimTime) / float64(eager.Stats.SimTime)

	// The baseline engine on the same rows; its result must equal the
	// oracle's, and therefore the data-flow engine's.
	vol, err := lp.fx.volcano(lp.w)
	if err != nil {
		lp.err = err
		return nil
	}
	pool0 := vol.Pool.Stats()
	var volAllocs uint64
	volOps := 0
	for start := time.Now(); volOps < 3 || volOps < 100 && time.Since(start) < slice; volOps++ {
		var res *core.Result
		m0 := mallocs()
		lp.span("core.volcano", "core", root, func() (_, _ int64, err error) {
			res, err = vol.Execute(lp.ctx, lp.w.query)
			return resultSize(res, err)
		})
		volAllocs += mallocs() - m0
		lp.verifyResult("core.volcano", res)
	}
	if lp.err != nil {
		return nil
	}
	pool1 := vol.Pool.Stats()
	hitPct := 0.0
	if acc := pool1.Hits + pool1.Misses - pool0.Hits - pool0.Misses; acc > 0 {
		hitPct = 100 * float64(pool1.Hits-pool0.Hits) / float64(acc)
	}

	return map[string]float64{
		"encoding.encode_ns_per_row":       tr.perRow("encoding.encode"),
		"storage.marshal_us_per_segment":   tr.perCall("storage.marshal") / 1e3,
		"storage.append_ms_per_segment":    tr.perCall("storage.append") / 1e6,
		"flow.port_ns_per_batch":           tr.perCall("flow.ports") / portBatches,
		"fabric.charge_ns_per_call":        tr.perRow("fabric.charge"),
		"obs.tracing_overhead_pct":         100 * (tr.perCall("tracing.on")/tr.perCall("tracing.off") - 1),
		"core.encoded_vs_eager_wall_ratio": tr.perCall("decode.encoded") / tr.perCall("decode.eager"),
		"core.encoded_vs_eager_sim_ratio":  simRatio,
		"core.workers2_wall_ratio":         tr.perCall("workers.1") / tr.perCall("workers.2"),
		"core.volcano_ms_per_op":           tr.perCall("core.volcano") / 1e6,
		"core.volcano_allocs_per_op":       float64(volAllocs) / float64(volOps),
		"bufferpool.hit_pct":               hitPct,
	}
}
