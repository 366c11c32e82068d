package storage

import (
	"context"
	"testing"

	"repro/internal/columnar"
	"repro/internal/expr"
	"repro/internal/faults"
	"repro/internal/sim"
)

// batchesEqual compares two scans' outputs cell by cell.
func batchesEqual(t *testing.T, a, b []*columnar.Batch) {
	t.Helper()
	av, bv := a, b
	ra, rb := totalRows(av), totalRows(bv)
	if ra != rb {
		t.Fatalf("row counts differ: %d vs %d", ra, rb)
	}
	// Walk rows across batch boundaries.
	ai, ar := 0, 0
	bi, br := 0, 0
	for {
		for ai < len(av) && ar >= av[ai].NumRows() {
			ai, ar = ai+1, 0
		}
		for bi < len(bv) && br >= bv[bi].NumRows() {
			bi, br = bi+1, 0
		}
		if ai == len(av) || bi == len(bv) {
			return
		}
		ba, bb := av[ai], bv[bi]
		if ba.NumCols() != bb.NumCols() {
			t.Fatalf("column counts differ: %d vs %d", ba.NumCols(), bb.NumCols())
		}
		for c := 0; c < ba.NumCols(); c++ {
			if !ba.Col(c).Value(ar).Equal(bb.Col(c).Value(br)) {
				t.Fatalf("cell differs at col %d: %v vs %v", c, ba.Col(c).Value(ar), bb.Col(c).Value(br))
			}
		}
		ar, br = ar+1, br+1
	}
}

func runScan(t *testing.T, srv *Server, spec ScanSpec) ([]*columnar.Batch, ScanStats, sim.VTime) {
	t.Helper()
	emit, got := collect(t)
	before := srv.Proc().Meter.Busy()
	stats, err := srv.Scan(context.Background(), "lineitem", spec, emit)
	if err != nil {
		t.Fatal(err)
	}
	return *got, stats, srv.Proc().Meter.Busy() - before
}

func TestEncodedEvalScanMatchesEager(t *testing.T) {
	specs := []ScanSpec{
		{Projection: []int{0, 2}, Filter: expr.NewBetween(1, 5, 9), Pushdown: true},
		{Projection: []int{2}, Filter: expr.NewCmp(1, expr.Ne, columnar.IntValue(3)), Pushdown: true},
		{Projection: []int{0, 3}, Filter: expr.NewCmp(3, expr.Eq, columnar.StringValue("fox")), Pushdown: true},
		{Projection: []int{1}, Filter: expr.NewCmp(2, expr.Lt, columnar.FloatValue(100)), Pushdown: true},
		{Projection: []int{0}, Filter: expr.NewIn(1, columnar.IntValue(2), columnar.IntValue(4)), Pushdown: true},
		{Filter: expr.NewNot(expr.NewBetween(0, 0, 2400)), Pushdown: true}, // nil projection = all columns
	}
	for _, workers := range []int{1, 3} {
		for si, base := range specs {
			eagerSrv := newTestServer(t, true)
			loadTable(t, eagerSrv, 5000)
			encSrv := newTestServer(t, true)
			loadTable(t, encSrv, 5000)

			eagerSpec := base
			eagerSpec.Workers = workers
			encSpec := base
			encSpec.Workers = workers
			encSpec.EncodedEval = true

			eagerOut, eagerStats, eagerBusy := runScan(t, eagerSrv, eagerSpec)
			encOut, encStats, encBusy := runScan(t, encSrv, encSpec)

			batchesEqual(t, eagerOut, encOut)
			if eagerStats.ShippedRows != encStats.ShippedRows || eagerStats.ShippedBytes != encStats.ShippedBytes {
				t.Fatalf("spec %d workers %d: shipped %d/%v vs %d/%v", si, workers,
					eagerStats.ShippedRows, eagerStats.ShippedBytes, encStats.ShippedRows, encStats.ShippedBytes)
			}
			if eagerStats.MediaBytes != encStats.MediaBytes {
				t.Fatalf("spec %d workers %d: media bytes %v vs %v", si, workers, eagerStats.MediaBytes, encStats.MediaBytes)
			}
			if encStats.EncodedEvalSegments == 0 {
				t.Fatalf("spec %d workers %d: encoded eval never engaged", si, workers)
			}
			if eagerStats.EncodedEvalSegments != 0 || eagerStats.DecodedBytesSaved != 0 {
				t.Fatalf("spec %d: eager scan reported encoded-eval stats %+v", si, eagerStats)
			}
			if encStats.DecodedBytes >= eagerStats.DecodedBytes {
				t.Fatalf("spec %d workers %d: encoded decoded %v, eager %v — no saving", si, workers,
					encStats.DecodedBytes, eagerStats.DecodedBytes)
			}
			if encStats.DecodedBytesSaved == 0 {
				t.Fatalf("spec %d workers %d: DecodedBytesSaved = 0", si, workers)
			}
			if encBusy >= eagerBusy {
				t.Fatalf("spec %d workers %d: encoded busy %v >= eager busy %v", si, workers, encBusy, eagerBusy)
			}
		}
	}
}

func TestEncodedEvalFallbackUnsupportedPredicate(t *testing.T) {
	srv := newTestServer(t, true)
	if _, err := srv.CreateTable("lineitem", columnar.NewSchema(
		columnar.Field{Name: "id", Type: columnar.Int64},
		columnar.Field{Name: "flag", Type: columnar.Bool},
	)); err != nil {
		t.Fatal(err)
	}
	b := columnar.NewBatch(columnar.NewSchema(
		columnar.Field{Name: "id", Type: columnar.Int64},
		columnar.Field{Name: "flag", Type: columnar.Bool},
	), 100)
	for i := 0; i < 100; i++ {
		b.AppendRow(columnar.IntValue(int64(i)), columnar.BoolValue(i%3 == 0))
	}
	if err := srv.Append("lineitem", b); err != nil {
		t.Fatal(err)
	}
	// Bool comparisons have no encoded kernel: the scan must fall back
	// per segment and still return correct rows.
	spec := ScanSpec{
		Projection:  []int{0},
		Filter:      expr.NewCmp(1, expr.Eq, columnar.BoolValue(true)),
		Pushdown:    true,
		EncodedEval: true,
	}
	out, stats, _ := runScan(t, srv, spec)
	if got := totalRows(out); got != 34 {
		t.Fatalf("rows = %d, want 34", got)
	}
	if stats.EncodedEvalSegments != 0 {
		t.Fatalf("unsupported predicate counted as encoded eval: %+v", stats)
	}
	if stats.DecodedBytes == 0 {
		t.Fatal("fallback path did not account decoded bytes")
	}
}

func TestEncodedEvalIgnoredWithoutPushdown(t *testing.T) {
	srv := newTestServer(t, true)
	loadTable(t, srv, 2000)
	spec := ScanSpec{
		Projection:  []int{0},
		Filter:      expr.NewBetween(1, 0, 4),
		EncodedEval: true, // no Pushdown: consumer filters, encoded eval must not engage
	}
	out, stats, _ := runScan(t, srv, spec)
	if stats.EncodedEvalSegments != 0 {
		t.Fatalf("encoded eval engaged without pushdown: %+v", stats)
	}
	// Without pushdown the filter column ships too and no rows are dropped.
	if got := totalRows(out); got != 2000 {
		t.Fatalf("rows = %d, want 2000", got)
	}
}

func TestEncodedEvalRecoversFromCorruptSegment(t *testing.T) {
	srv := newTestServer(t, true)
	loadTable(t, srv, 3000)
	// One read returns corrupted bytes; the checksum catches it and the
	// retry re-reads the clean stored blob.
	srv.Store().RetryBase = 0
	inj := faults.New(41)
	inj.Arm(faults.Point{Kind: faults.CorruptBlob, Prob: 1, Budget: 1})
	srv.Store().svc.Faults = inj
	spec := ScanSpec{
		Projection:  []int{0, 2},
		Filter:      expr.NewBetween(1, 0, 24),
		Pushdown:    true,
		EncodedEval: true,
	}
	out, stats, _ := runScan(t, srv, spec)
	if got := totalRows(out); got != 1500 {
		t.Fatalf("rows = %d, want 1500", got)
	}
	if stats.Retries == 0 {
		t.Fatalf("corrupt blob did not trigger a retry: %+v", stats)
	}
}

func TestEncodedEvalProcBusyAdvantage(t *testing.T) {
	// At ~2% selectivity on a bit-packed column the processor should be
	// at least 2x less busy with encoded eval (the E23 acceptance bar is
	// 2x at <=10%).
	build := func() *Server {
		srv := newTestServer(t, true)
		loadTable(t, srv, 10000)
		return srv
	}
	spec := ScanSpec{Projection: []int{0, 2}, Filter: expr.NewCmp(1, expr.Eq, columnar.IntValue(7)), Pushdown: true}
	_, _, eagerBusy := runScan(t, build(), spec)
	encSpec := spec
	encSpec.EncodedEval = true
	_, _, encBusy := runScan(t, build(), encSpec)
	if encBusy*2 > eagerBusy {
		t.Fatalf("encoded busy %v, eager busy %v: less than 2x win", encBusy, eagerBusy)
	}
}
