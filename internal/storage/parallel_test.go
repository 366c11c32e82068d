package storage

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"repro/internal/columnar"
	"repro/internal/expr"
	"repro/internal/fabric"
)

// scanAll runs one scan and returns the emitted batches, the stats, and
// the progress watermarks observed on the way.
func scanAll(t *testing.T, srv *Server, spec ScanSpec) ([]*columnar.Batch, ScanStats, []int) {
	t.Helper()
	var marks []int
	spec.Progress = func(next int) error {
		marks = append(marks, next)
		return nil
	}
	emit, got := collect(t)
	stats, err := srv.Scan(context.Background(), "lineitem", spec, emit)
	if err != nil {
		t.Fatal(err)
	}
	return *got, stats, marks
}

// rowsOf flattens batches into row-major cells for order-sensitive
// comparison.
func rowsOf(batches []*columnar.Batch) [][]columnar.Value {
	var out [][]columnar.Value
	for _, b := range batches {
		out = append(out, b.RowMajor()...)
	}
	return out
}

// A parallel scan must be observationally identical to the serial one:
// same batches in the same order, same stats, same progress watermarks,
// and the same metered byte/busy totals on every device.
func TestParallelScanMatchesSerial(t *testing.T) {
	specs := map[string]ScanSpec{
		"plain": {},
		"pushdown-filter": {
			Filter:   expr.NewCmp(1, expr.Lt, columnar.IntValue(20)),
			Pushdown: true,
		},
		"pushdown-project": {
			Projection: []int{2, 0},
			Pushdown:   true,
		},
		"prune": {
			// orderkey is monotone, so zone maps prune later segments.
			Filter:   expr.NewCmp(0, expr.Lt, columnar.IntValue(1500)),
			Pushdown: true,
		},
	}
	for name, spec := range specs {
		t.Run(name, func(t *testing.T) {
			serialSrv := newTestServer(t, true)
			loadTable(t, serialSrv, 7000)
			wantBatches, wantStats, wantMarks := scanAll(t, serialSrv, spec)
			serialMedia := serialSrv.media.Meter.Snapshot()
			serialProc := serialSrv.proc.Meter.Snapshot()

			// Workers 1 must take the same inline path as the implicit 0.
			for _, workers := range []int{1, 2, 4} {
				parSrv := newTestServer(t, true)
				// Match the serial server's parallel capacity explicitly.
				loadTable(t, parSrv, 7000)
				pspec := spec
				pspec.Workers = workers
				gotBatches, gotStats, gotMarks := scanAll(t, parSrv, pspec)

				if !reflect.DeepEqual(rowsOf(gotBatches), rowsOf(wantBatches)) {
					t.Fatalf("w=%d: emitted rows differ from serial scan", workers)
				}
				if gotStats != wantStats {
					t.Errorf("w=%d: stats differ:\n  par %+v\n  ser %+v", workers, gotStats, wantStats)
				}
				if !reflect.DeepEqual(gotMarks, wantMarks) {
					t.Errorf("w=%d: progress marks %v, want %v", workers, gotMarks, wantMarks)
				}
				if m := parSrv.media.Meter.Snapshot(); m != serialMedia {
					t.Errorf("w=%d: media meter %+v, want %+v", workers, m, serialMedia)
				}
				if m := parSrv.proc.Meter.Snapshot(); m != serialProc {
					t.Errorf("w=%d: proc meter %+v, want %+v", workers, m, serialProc)
				}
			}
		})
	}
}

// Repeated parallel scans of the same table must be deterministic in
// results and in metered totals, even though worker interleaving varies
// run to run.
func TestParallelScanDeterministic(t *testing.T) {
	srv := newTestServer(t, true)
	loadTable(t, srv, 7000)
	spec := ScanSpec{
		Filter:   expr.NewCmp(1, expr.Lt, columnar.IntValue(25)),
		Pushdown: true,
		Workers:  4,
	}
	start := srv.proc.Meter.Snapshot()
	first, _, _ := scanAll(t, srv, spec)
	delta := srv.proc.Meter.Snapshot().Sub(start)
	for i := 0; i < 5; i++ {
		before := srv.proc.Meter.Snapshot()
		again, _, _ := scanAll(t, srv, spec)
		if !reflect.DeepEqual(rowsOf(again), rowsOf(first)) {
			t.Fatalf("run %d: rows differ from first parallel run", i)
		}
		// Every identical scan charges the identical delta.
		if got := srv.proc.Meter.Snapshot().Sub(before); got != delta {
			t.Fatalf("run %d: proc meter delta %+v, want %+v", i, got, delta)
		}
	}
}

// Worker counts beyond the processor's replicated units clamp instead
// of oversubscribing lanes, and the scan's account holds exactly what
// the scan charged: the lane split is the account's, the totals the
// meters'.
func TestParallelScanClampsToUnits(t *testing.T) {
	srv, top := newTestServerOn(t, true)
	loadTable(t, srv, 3000)
	if u := srv.proc.Units(); u != fabric.SmartSSDUnits {
		t.Fatalf("test proc units = %d, want %d", u, fabric.SmartSSDUnits)
	}
	acct := top.NewAccount()
	batches, stats, _ := scanAll(t, srv, ScanSpec{Workers: 64, Account: acct})
	if totalRows(batches) != 3000 {
		t.Fatalf("scanned %d rows, want 3000", totalRows(batches))
	}
	if stats.SegmentsTotal != 3 {
		t.Fatalf("stats = %+v", stats)
	}
	// Three segments on three of the processor's four lanes: the decode
	// overlaps, but no further than the slowest of three.
	proc := acct.Device(srv.proc)
	if proc.Effective >= proc.Busy || proc.Effective < proc.Busy/3 {
		t.Errorf("effective busy %v of %v total, want at least a third and less than all of it", proc.Effective, proc.Busy)
	}
	// This scan is all the server's devices ever did.
	if proc.Snapshot != srv.proc.Meter.Snapshot() ||
		acct.Device(srv.media).Snapshot != srv.media.Meter.Snapshot() ||
		acct.Link(srv.mediaLink).Snapshot != srv.mediaLink.Meter.Snapshot() {
		t.Errorf("account != meters: proc %+v vs %+v", proc.Snapshot, srv.proc.Meter.Snapshot())
	}
}

// A parallel pooled scan that fails gives back every decoded set: the
// morsels it never delivered — finished after the failure, or waiting
// in the reorder buffer for an earlier one — release theirs, so once the
// scan returns every set leased from the server's pool is back in it.
func TestFailedParallelScanReleasesUndeliveredMorsels(t *testing.T) {
	srv := newTestServer(t, true)
	loadTable(t, srv, 12000) // twelve segments, each under DefaultBatchRows rows
	stop := errors.New("consumer fails")
	emit := func(b *columnar.Batch) error {
		b.Release()
		return stop
	}
	if _, err := srv.ScanPooled(context.Background(), "lineitem", ScanSpec{Workers: 3}, emit); !errors.Is(err, stop) {
		t.Fatalf("scan error = %v, want the consumer's", err)
	}
	if free, peak, _ := srv.PoolStats(); free != peak {
		t.Fatalf("%d sets back in the pool, %d were out at the peak", free, peak)
	}
}
