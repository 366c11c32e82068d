package storage

import (
	"context"
	"errors"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/columnar"
	"repro/internal/encoding"
	"repro/internal/expr"
	"repro/internal/fabric"
	"repro/internal/obs"
	"repro/internal/sim"
)

func lineSchema() *columnar.Schema {
	return columnar.NewSchema(
		columnar.Field{Name: "orderkey", Type: columnar.Int64},
		columnar.Field{Name: "qty", Type: columnar.Int64},
		columnar.Field{Name: "price", Type: columnar.Float64},
		columnar.Field{Name: "comment", Type: columnar.String},
	)
}

func lineBatch(n int) *columnar.Batch {
	b := columnar.NewBatch(lineSchema(), n)
	words := []string{"quick", "brown", "fox", "lazy", "dog"}
	for i := 0; i < n; i++ {
		b.AppendRow(
			columnar.IntValue(int64(i)),
			columnar.IntValue(int64(i%50)),
			columnar.FloatValue(float64(i)*0.25),
			columnar.StringValue(words[i%len(words)]),
		)
	}
	return b
}

func TestSegmentRoundTrip(t *testing.T) {
	b := lineBatch(1000)
	seg := BuildSegment(7, b)
	if seg.NumRows != 1000 || seg.ID != 7 {
		t.Fatalf("segment header %d/%d", seg.ID, seg.NumRows)
	}
	back, err := seg.Decode()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < b.NumRows(); i += 97 {
		for c := 0; c < b.NumCols(); c++ {
			if !back.Col(c).Value(i).Equal(b.Col(c).Value(i)) {
				t.Fatalf("cell (%d,%d) differs", i, c)
			}
		}
	}
}

func TestSegmentDecodeColumns(t *testing.T) {
	seg := BuildSegment(0, lineBatch(100))
	b, err := seg.DecodeColumns([]int{2, 0})
	if err != nil {
		t.Fatal(err)
	}
	if b.NumCols() != 2 || b.Schema().Fields[0].Name != "price" {
		t.Fatalf("projected decode schema = %s", b.Schema())
	}
	if _, err := seg.DecodeColumns([]int{9}); err == nil {
		t.Error("out-of-range column decoded without error")
	}
}

func TestSegmentMarshalRoundTrip(t *testing.T) {
	seg := BuildSegment(3, lineBatch(500))
	back, err := UnmarshalSegment(seg.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if back.ID != 3 || back.NumRows != 500 || !back.Schema.Equal(seg.Schema) {
		t.Fatalf("header mismatch: %+v", back)
	}
	dec, err := back.Decode()
	if err != nil {
		t.Fatal(err)
	}
	if dec.NumRows() != 500 {
		t.Fatalf("decoded rows = %d", dec.NumRows())
	}
}

func TestSegmentMarshalRejectsTruncation(t *testing.T) {
	blob := BuildSegment(0, lineBatch(64)).Marshal()
	for i := 0; i < len(blob)-1; i += 13 {
		if _, err := UnmarshalSegment(blob[:i]); err == nil {
			t.Fatalf("truncated segment at %d parsed", i)
		}
	}
}

// The column checksum covers the null bitmap as well as the values: one
// null bit flipped in a stored 1,000-row BIGINT column with 100 NULLs is
// ErrCorrupt from Decode, DecodeFiltered and VerifySegmentBlob, not a
// column with 101 NULLs.
func TestChecksumCoversNullBitmap(t *testing.T) {
	const n = 1000
	v := columnar.NewVector(columnar.Int64, n)
	for i := 0; i < n; i++ {
		if i%10 == 0 {
			v.AppendNull()
		} else {
			v.AppendValue(columnar.IntValue(int64(i)))
		}
	}
	schema := columnar.NewSchema(columnar.Field{Name: "v", Type: columnar.Int64})
	blob := BuildSegment(0, columnar.BatchOf(schema, v)).Marshal()
	if err := VerifySegmentBlob(blob); err != nil {
		t.Fatalf("intact blob: %v", err)
	}
	damaged := append([]byte(nil), blob...)
	seg, err := UnmarshalSegment(damaged)
	if err != nil {
		t.Fatal(err)
	}
	col := seg.Columns[0]
	// The column is a view of damaged: this flips row 993's null bit there.
	col.Nulls[len(col.Nulls)-1] ^= 0x02
	if err := VerifySegmentBlob(damaged); !errors.Is(err, encoding.ErrCorrupt) {
		t.Errorf("VerifySegmentBlob = %v, want ErrCorrupt", err)
	}
	if _, err := col.Decode(); !errors.Is(err, encoding.ErrCorrupt) {
		t.Errorf("Decode error = %v, want ErrCorrupt", err)
	}
	sel := columnar.NewBitmap(n)
	sel.Set(993)
	if _, err := col.DecodeFiltered(sel); !errors.Is(err, encoding.ErrCorrupt) {
		t.Errorf("DecodeFiltered error = %v, want ErrCorrupt", err)
	}
}

func TestSegmentPruneInt(t *testing.T) {
	seg := BuildSegment(0, lineBatch(100)) // orderkey 0..99
	if !seg.PruneInt(0, 200, 300) {
		t.Error("range [200,300] not pruned for keys 0..99")
	}
	if seg.PruneInt(0, 50, 60) {
		t.Error("range [50,60] wrongly pruned")
	}
	if seg.PruneInt(99, 0, 1) {
		t.Error("out-of-range column pruned")
	}
}

func TestSegmentSizes(t *testing.T) {
	seg := BuildSegment(0, lineBatch(10000))
	if seg.EncodedSize() <= 0 || seg.DecodedSize() <= 0 {
		t.Fatal("non-positive sizes")
	}
	// qty has 50 distinct small values; encoded must beat 8B/value.
	if seg.EncodedSize() >= seg.DecodedSize() {
		t.Errorf("encoded %v >= decoded %v", seg.EncodedSize(), seg.DecodedSize())
	}
	one := seg.ColumnDecodedSize([]int{0})
	two := seg.ColumnDecodedSize([]int{0, 1})
	if two <= one {
		t.Error("ColumnDecodedSize not additive")
	}
}

func TestObjectStoreBasics(t *testing.T) {
	o := NewObjectStore(nil)
	o.Put("t/a", []byte("hello"))
	o.Put("t/b", []byte("world!"))
	o.Put("u/c", []byte("x"))
	data, err := o.Get(context.Background(), "t/a")
	if err != nil || string(data) != "hello" {
		t.Fatalf("Get = %q, %v", data, err)
	}
	if _, err := o.Get(context.Background(), "missing"); err == nil {
		t.Error("Get(missing) succeeded")
	}
	if got := o.List("t/"); len(got) != 2 || got[0] != "t/a" {
		t.Errorf("List = %v", got)
	}
	if o.Size("t/b") != 6 || o.Size("nope") != -1 {
		t.Error("Size wrong")
	}
	if o.TotalBytes() != 12 || o.NumObjects() != 3 {
		t.Errorf("TotalBytes=%d NumObjects=%d", o.TotalBytes(), o.NumObjects())
	}
	o.Delete("t/a")
	if _, err := o.Get(context.Background(), "t/a"); err == nil {
		t.Error("deleted object still readable")
	}
	// Put copies its input.
	buf := []byte("mutate")
	o.Put("m", buf)
	buf[0] = 'X'
	got, _ := o.Get(context.Background(), "m")
	if string(got) != "mutate" {
		t.Error("Put did not copy data")
	}
}

// newTestServer builds a smart storage server over a tiny fabric.
func newTestServer(t *testing.T, smart bool) *Server {
	t.Helper()
	srv, _ := newTestServerOn(t, smart)
	return srv
}

// newTestServerOn also returns the topology the server's devices belong
// to, for tests that scan with an account.
func newTestServerOn(t *testing.T, smart bool) (*Server, *fabric.Topology) {
	t.Helper()
	top := fabric.NewTopology("test")
	media := top.AddDevice(fabric.NewStorageMedia("media"))
	var proc *fabric.Device
	if smart {
		proc = fabric.NewSmartSSD("proc")
	} else {
		proc = &fabric.Device{Name: "proc", Kind: fabric.KindSmartSSD,
			Caps: fabric.Capability{fabric.OpScan: fabric.NVMeBandwidth, fabric.OpDecompress: 5e9}}
	}
	top.AddDevice(proc)
	link := top.Connect("media", "proc", fabric.LinkNVMe, fabric.NVMeBandwidth, fabric.NVMeLatency)
	srv := NewServer(NewObjectStore(nil), media, proc, link)
	srv.SegmentRows = 1000
	return srv, top
}

func loadTable(t *testing.T, srv *Server, rows int) {
	t.Helper()
	if _, err := srv.CreateTable("lineitem", lineSchema()); err != nil {
		t.Fatal(err)
	}
	if err := srv.Append("lineitem", lineBatch(rows)); err != nil {
		t.Fatal(err)
	}
}

func collect(t *testing.T) (func(*columnar.Batch) error, *[]*columnar.Batch) {
	t.Helper()
	var got []*columnar.Batch
	return func(b *columnar.Batch) error {
		got = append(got, b)
		return nil
	}, &got
}

func totalRows(batches []*columnar.Batch) int {
	n := 0
	for _, b := range batches {
		n += b.NumRows()
	}
	return n
}

func TestServerCreateAppendScan(t *testing.T) {
	srv := newTestServer(t, true)
	loadTable(t, srv, 5000)
	meta, err := srv.Table("lineitem")
	if err != nil {
		t.Fatal(err)
	}
	if meta.NumRows != 5000 || len(meta.SegmentKeys) != 5 {
		t.Fatalf("meta = %+v", meta)
	}
	emit, got := collect(t)
	stats, err := srv.Scan(context.Background(), "lineitem", ScanSpec{}, emit)
	if err != nil {
		t.Fatal(err)
	}
	if totalRows(*got) != 5000 {
		t.Errorf("scanned %d rows, want 5000", totalRows(*got))
	}
	if stats.SegmentsTotal != 5 || stats.SegmentsPruned != 0 {
		t.Errorf("stats = %+v", stats)
	}
	if stats.ShippedRows != 5000 || stats.ShippedBytes <= 0 || stats.MediaBytes <= 0 {
		t.Errorf("stats = %+v", stats)
	}
}

// A scan works on the segment list as it stood when the scan started:
// beside a running ingest it returns whole batches, never fewer than
// the scan before it, and the data race detector stays quiet.
func TestScanBesideAppend(t *testing.T) {
	const batches, batchRows = 32, 100
	srv := newTestServer(t, true)
	if _, err := srv.CreateTable("lineitem", lineSchema()); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		defer close(done)
		for i := 0; i < batches; i++ {
			if err := srv.Append("lineitem", lineBatch(batchRows)); err != nil {
				done <- err
				return
			}
		}
	}()
	scan := func(workers int) int {
		rows := 0
		_, err := srv.Scan(context.Background(), "lineitem", ScanSpec{Workers: workers}, func(b *columnar.Batch) error {
			rows += b.NumRows()
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return rows
	}
	last := 0
	for ingesting, i := true, 0; ingesting; i++ {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			ingesting = false // one more scan, after the last Append
		default:
		}
		rows := scan(1 + i%2)
		if rows%batchRows != 0 || rows < last {
			t.Fatalf("scan %d returned %d rows after %d: want whole batches, non-decreasing", i, rows, last)
		}
		last = rows
	}
	if last != batches*batchRows {
		t.Fatalf("final scan returned %d rows, want %d", last, batches*batchRows)
	}
}

func TestScanTraceSpans(t *testing.T) {
	srv := newTestServer(t, true)
	loadTable(t, srv, 5000)
	tr := obs.New()
	clock := obs.NewVClock()
	emit, _ := collect(t)
	spec := ScanSpec{
		Filter:   expr.NewCmp(1, expr.Lt, columnar.IntValue(5)),
		Pushdown: true,
		Trace:    tr,
		Clock:    clock,
	}
	if _, err := srv.Scan(context.Background(), "lineitem", spec, emit); err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, s := range tr.Spans() {
		counts[s.Name]++
	}
	// 5 segments, none pruned: each reads, crosses the media link,
	// decodes, and filters.
	for _, name := range []string{"read", "xfer", "decode", "filter@storage"} {
		if counts[name] != 5 {
			t.Errorf("span %q count = %d, want 5 (all: %v)", name, counts[name], counts)
		}
	}
	if clock.Now() <= 0 {
		t.Error("scan did not advance the virtual clock")
	}
	if mk := tr.Makespan(); mk != clock.Now() {
		t.Errorf("trace makespan %v != clock %v: scan spans not contiguous", mk, clock.Now())
	}
}

func TestServerErrors(t *testing.T) {
	srv := newTestServer(t, true)
	if _, err := srv.Table("none"); err == nil {
		t.Error("unknown table lookup succeeded")
	}
	loadTable(t, srv, 10)
	if _, err := srv.CreateTable("lineitem", lineSchema()); err == nil {
		t.Error("duplicate CreateTable succeeded")
	}
	wrong := columnar.NewBatch(columnar.NewSchema(columnar.Field{Name: "z", Type: columnar.Bool}), 1)
	if err := srv.Append("lineitem", wrong); err == nil {
		t.Error("schema-mismatched Append succeeded")
	}
	emit, _ := collect(t)
	if _, err := srv.Scan(context.Background(), "nope", ScanSpec{}, emit); err == nil {
		t.Error("scan of unknown table succeeded")
	}
}

func TestScanPushdownFilterAndProjection(t *testing.T) {
	srv := newTestServer(t, true)
	loadTable(t, srv, 5000)
	emit, got := collect(t)
	spec := ScanSpec{
		Projection: []int{2},                                      // price only
		Filter:     expr.NewCmp(1, expr.Lt, columnar.IntValue(5)), // qty < 5
		Pushdown:   true,
	}
	stats, err := srv.Scan(context.Background(), "lineitem", spec, emit)
	if err != nil {
		t.Fatal(err)
	}
	// qty cycles 0..49, so 10% of rows survive.
	if totalRows(*got) != 500 {
		t.Errorf("filtered rows = %d, want 500", totalRows(*got))
	}
	for _, b := range *got {
		if b.NumCols() != 1 || b.Schema().Fields[0].Name != "price" {
			t.Fatalf("projected schema = %s", b.Schema())
		}
	}
	// Pushdown must ship far less than it read.
	if stats.ShippedBytes*2 >= stats.MediaBytes*8 {
		// 500 rows x 8B vs ~5000 rows x 2 cols encoded; loose sanity check.
		t.Logf("shipped %v media %v", stats.ShippedBytes, stats.MediaBytes)
	}
	full, _ := collect(t)
	fullStats, err := srv.Scan(context.Background(), "lineitem", ScanSpec{}, func(b *columnar.Batch) error { return (*(&full))(b) })
	_ = fullStats
	if err != nil {
		t.Fatal(err)
	}
	if stats.ShippedBytes >= fullStats.ShippedBytes {
		t.Errorf("pushdown shipped %v >= full scan %v", stats.ShippedBytes, fullStats.ShippedBytes)
	}
}

func TestScanWithoutPushdownShipsFilterColumns(t *testing.T) {
	srv := newTestServer(t, false)
	loadTable(t, srv, 2000)
	emit, got := collect(t)
	spec := ScanSpec{
		Projection: []int{2},
		Filter:     expr.NewCmp(1, expr.Lt, columnar.IntValue(5)),
		Pushdown:   false,
	}
	stats, err := srv.Scan(context.Background(), "lineitem", spec, emit)
	if err != nil {
		t.Fatal(err)
	}
	// No filtering happened: all rows ship, including the filter column.
	if totalRows(*got) != 2000 {
		t.Errorf("rows = %d, want 2000 (no pushdown)", totalRows(*got))
	}
	b := (*got)[0]
	if b.NumCols() != 2 {
		t.Errorf("shipped cols = %d, want 2 (price + qty)", b.NumCols())
	}
	if stats.ShippedRows != 2000 {
		t.Errorf("stats.ShippedRows = %d", stats.ShippedRows)
	}
}

func TestScanPushdownOnDumbProcessorFails(t *testing.T) {
	srv := newTestServer(t, false)
	loadTable(t, srv, 100)
	emit, _ := collect(t)
	_, err := srv.Scan(context.Background(), "lineitem", ScanSpec{
		Filter:   expr.NewCmp(1, expr.Lt, columnar.IntValue(5)),
		Pushdown: true,
	}, emit)
	if err == nil || !strings.Contains(err.Error(), "cannot execute") {
		t.Fatalf("err = %v, want capability error", err)
	}
}

func TestScanZoneMapPruning(t *testing.T) {
	srv := newTestServer(t, true)
	loadTable(t, srv, 10000) // 10 segments, orderkey 0..9999
	emit, got := collect(t)
	spec := ScanSpec{
		Filter:   expr.NewBetween(0, 2500, 2599), // inside segment 2 only
		Pushdown: true,
	}
	stats, err := srv.Scan(context.Background(), "lineitem", spec, emit)
	if err != nil {
		t.Fatal(err)
	}
	if stats.SegmentsPruned != 9 {
		t.Errorf("pruned %d segments, want 9", stats.SegmentsPruned)
	}
	if totalRows(*got) != 100 {
		t.Errorf("rows = %d, want 100", totalRows(*got))
	}
	// A range every segment overlaps prunes nothing and reads everything.
	emit2, got2 := collect(t)
	spec.Filter = expr.NewBetween(0, 0, 9999)
	stats2, err := srv.Scan(context.Background(), "lineitem", spec, emit2)
	if err != nil {
		t.Fatal(err)
	}
	if stats2.SegmentsPruned != 0 {
		t.Errorf("all-overlapping range pruned %d segments", stats2.SegmentsPruned)
	}
	if totalRows(*got2) != 10000 {
		t.Errorf("rows = %d, want 10000", totalRows(*got2))
	}
	if stats2.MediaBytes <= stats.MediaBytes {
		t.Error("pruning did not reduce media bytes")
	}
}

func TestScanPreAggAtStorage(t *testing.T) {
	srv := newTestServer(t, true)
	loadTable(t, srv, 5000)
	spec := ScanSpec{
		PreAgg: &expr.GroupBy{
			GroupCols: []int{1}, // qty (50 groups)
			Aggs:      []expr.AggSpec{{Func: expr.Count}, {Func: expr.Sum, Col: 0}},
		},
		Pushdown: true,
	}
	emit, got := collect(t)
	stats, err := srv.Scan(context.Background(), "lineitem", spec, emit)
	if err != nil {
		t.Fatal(err)
	}
	// Merge partials and verify counts: each qty value appears 100x.
	final := expr.NewFinalAggregator(*spec.PreAgg, lineSchema())
	// Rebase: partials are keyed over decoded schema; final agg expects
	// partials matching its own spec's shape, which they do (group cols
	// then states).
	finalSpec := expr.GroupBy{GroupCols: []int{0}, Aggs: spec.PreAgg.Aggs}
	_ = finalSpec
	for _, b := range *got {
		final.AddPartial(b)
	}
	res := final.Result()
	if res.NumRows() != 50 {
		t.Fatalf("groups = %d, want 50", res.NumRows())
	}
	for i := 0; i < res.NumRows(); i++ {
		if cnt := res.Col(1).Int64s()[i]; cnt != 100 {
			t.Errorf("group %d count = %d, want 100", i, cnt)
		}
	}
	if stats.ShippedRows >= 5000 {
		t.Errorf("pre-agg shipped %d rows, want far fewer than 5000", stats.ShippedRows)
	}
}

func TestScanChargesDevices(t *testing.T) {
	srv := newTestServer(t, true)
	loadTable(t, srv, 3000)
	emit, _ := collect(t)
	spec := ScanSpec{Filter: expr.NewCmp(1, expr.Lt, columnar.IntValue(10)), Pushdown: true}
	if _, err := srv.Scan(context.Background(), "lineitem", spec, emit); err != nil {
		t.Fatal(err)
	}
	if srv.Proc().Meter.Busy() <= 0 {
		t.Error("processor not charged")
	}
	if srv.Proc().Meter.Bytes() <= 0 {
		t.Error("processor bytes not charged")
	}
}

func TestDropTable(t *testing.T) {
	srv := newTestServer(t, true)
	loadTable(t, srv, 100)
	if srv.Store().NumObjects() == 0 {
		t.Fatal("no objects after load")
	}
	srv.DropTable("lineitem")
	if srv.Store().NumObjects() != 0 {
		t.Error("DropTable left objects")
	}
	if _, err := srv.Table("lineitem"); err == nil {
		t.Error("dropped table still visible")
	}
	if got := srv.Tables(); len(got) != 0 {
		t.Errorf("Tables = %v", got)
	}
}

// Property: segment round trip preserves arbitrary int64 columns.
func TestSegmentRoundTripProperty(t *testing.T) {
	schema := columnar.NewSchema(columnar.Field{Name: "v", Type: columnar.Int64})
	f := func(vals []int64) bool {
		if len(vals) == 0 {
			return true
		}
		b := columnar.BatchOf(schema, columnar.FromInt64s(vals))
		seg, err := UnmarshalSegment(BuildSegment(0, b).Marshal())
		if err != nil {
			return false
		}
		back, err := seg.Decode()
		if err != nil || back.NumRows() != len(vals) {
			return false
		}
		for i, v := range vals {
			if back.Col(0).Int64s()[i] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestScanStatsShippedAccounting(t *testing.T) {
	srv := newTestServer(t, true)
	loadTable(t, srv, 1000)
	var sumBytes sim.Bytes
	stats, err := srv.Scan(context.Background(), "lineitem", ScanSpec{}, func(b *columnar.Batch) error {
		sumBytes += sim.Bytes(b.ByteSize())
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.ShippedBytes != sumBytes {
		t.Errorf("ShippedBytes %v != emitted %v", stats.ShippedBytes, sumBytes)
	}
}
