package storage

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/columnar"
	"repro/internal/expr"
	"repro/internal/resilience"
)

// scanStateSpecs are scans of every kind over loadTable's lineitem:
// eager and encoded, pushed down or not, pre-aggregating, with a nil
// projection, and at width 2 under a policy that speculates.
func scanStateSpecs() []ScanSpec {
	pred := expr.NewBetween(1, 5, 30)
	return []ScanSpec{
		{},
		{Filter: pred, Projection: []int{3}},
		{Filter: pred, Pushdown: true, Projection: []int{2, 0}},
		{Filter: pred, Pushdown: true, EncodedEval: true, Projection: []int{3, 0}},
		{Filter: pred, Pushdown: true, EncodedEval: true},
		{Filter: pred, Pushdown: true, PreAgg: &expr.GroupBy{
			GroupCols: []int{3}, Aggs: []expr.AggSpec{{Func: expr.Count}, {Func: expr.Sum, Col: 2}}}},
		{Pushdown: true, PreAgg: &expr.GroupBy{Aggs: []expr.AggSpec{{Func: expr.Count}}}},
		{Filter: expr.NewCmp(1, expr.Lt, columnar.IntValue(20)), Pushdown: true, EncodedEval: true, Workers: 2},
		{Projection: []int{2, 1}, Workers: 2},
	}
}

// newScanStateServer loads a four-segment lineitem on a server whose
// policy speculates at width 2 without ever starting a late copy (the
// copy's timer is an hour), so the speculating scan's stats hold still.
func newScanStateServer(t *testing.T) *Server {
	t.Helper()
	srv := newTestServer(t, true)
	loadTable(t, srv, 4000)
	pol := resilience.NewPolicy()
	pol.Hedge = false
	pol.HedgeMinDelay = time.Hour
	srv.Store().svc.Resilience = pol
	return srv
}

type scanOutcome struct {
	rows  [][]columnar.Value
	stats ScanStats
}

func scanOnce(t *testing.T, srv *Server, spec ScanSpec, pooled bool) scanOutcome {
	t.Helper()
	var out scanOutcome
	emit := func(b *columnar.Batch) error {
		out.rows = append(out.rows, b.RowMajor()...)
		b.Release()
		return nil
	}
	run := srv.Scan
	if pooled {
		run = srv.ScanPooled
	}
	var err error
	if out.stats, err = run(context.Background(), "lineitem", spec, emit); err != nil {
		t.Error(err)
	}
	return out
}

// A scan runs on a state the server lends it (scanState) and takes back
// once every morsel has finished, so a free state holds the column lists
// and schemas of whatever scan it served last. No scan may depend on
// them: after every slice of every free state has been overwritten,
// scans of every kind, pooled and not, return the rows and stats they did
// at first. A free state points at nothing its scan did, and built with
// -tags poisonpool its column lists are poisoned.
func TestScanUnchangedAfterFreeScanStatesAreOverwritten(t *testing.T) {
	srv := newScanStateServer(t)
	specs := scanStateSpecs()
	want := make([]scanOutcome, 2*len(specs))
	for i, spec := range specs {
		for p, pooled := range []bool{false, true} {
			if want[2*i+p] = scanOnce(t, srv, spec, pooled); len(want[2*i+p].rows) == 0 {
				t.Fatalf("spec %d returned no rows", i)
			}
		}
	}
	if len(srv.scans) == 0 {
		t.Fatal("the scans handed no state back")
	}
	probe := []int{0}
	columnar.Poison(probe, -1)
	poisoned := probe[0] == -1
	for i, sc := range srv.scans {
		if sc.t != nil || sc.keys != nil || sc.filter != nil || sc.preagg != nil || sc.pipe != nil ||
			sc.pool != nil || sc.emit != nil || !reflect.ValueOf(sc.spec).IsZero() || sc.stats != (ScanStats{}) {
			t.Fatalf("free scan state %d still points at its scan", i)
		}
		for _, cols := range [][]int{sc.needed, sc.projection, sc.projPos, sc.filterCols, sc.pos} {
			for _, c := range cols {
				if poisoned && c != -1 {
					t.Fatalf("free scan state %d's column lists were not poisoned when it was handed back", i)
				}
			}
		}
	}

	overwrite := func() {
		srv.scanMu.Lock()
		defer srv.scanMu.Unlock()
		for _, sc := range srv.scans {
			for _, cols := range [][]int{sc.needed, sc.projection, sc.projPos, sc.filterCols, sc.pos} {
				cols = cols[:cap(cols)]
				for i := range cols {
					cols[i] = (i + 1) % 4 // a column of the table, the wrong one
				}
			}
			for _, schema := range []*columnar.Schema{sc.decoded, sc.projected} {
				if schema != nil {
					for i := range schema.Fields {
						schema.Fields[i] = columnar.Field{Name: "stale", Type: columnar.Bool}
					}
				}
			}
		}
	}
	for round := 0; round < 3; round++ {
		for i, spec := range specs {
			for p, pooled := range []bool{false, true} {
				overwrite()
				if got := scanOnce(t, srv, spec, pooled); !reflect.DeepEqual(got, want[2*i+p]) {
					t.Fatalf("round %d, spec %d, pooled %v: %d rows and stats %+v after the free states were overwritten, %d and %+v before",
						round, i, pooled, len(got.rows), got.stats, len(want[2*i+p].rows), want[2*i+p].stats)
				}
			}
		}
	}
}

// Scans of every kind run at once on one server, each on a state of its
// own, and return what each returns alone; so do scans that stop after
// their first batch while a second worker is still reading, whose states
// go back only once that worker has finished. Run it with -race.
func TestConcurrentScansOnOneServer(t *testing.T) {
	srv := newScanStateServer(t)
	specs := scanStateSpecs()
	want := make([]scanOutcome, len(specs))
	for i, spec := range specs {
		want[i] = scanOnce(t, srv, spec, true)
	}
	stop := errors.New("enough")
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 5; round++ {
				for i := range specs {
					spec := specs[(i+g)%len(specs)]
					if got := scanOnce(t, srv, spec, true); !reflect.DeepEqual(got, want[(i+g)%len(specs)]) {
						t.Errorf("goroutine %d, spec %d: %d rows beside other scans, %d alone",
							g, (i+g)%len(specs), len(got.rows), len(want[(i+g)%len(specs)].rows))
						return
					}
				}
				_, err := srv.ScanPooled(context.Background(), "lineitem", ScanSpec{Workers: 2},
					func(b *columnar.Batch) error { b.Release(); return stop })
				if !errors.Is(err, stop) {
					t.Errorf("goroutine %d: a scan stopped by its consumer returned %v", g, err)
					return
				}
			}
		}()
	}
	wg.Wait()
}
