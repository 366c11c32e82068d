package core

import (
	"bytes"
	"context"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/columnar"
	"repro/internal/fabric"
	"repro/internal/plan"
	"repro/internal/sim"
	"repro/internal/workload"
)

// assertNoScanWorkers registers a cleanup that fails the test if a scan
// worker (a goroutine of internal/morsel) is still alive once the test
// body returns: a query that stops pulling, or fails, must stop the
// workers prefetching its segments before Execute returns.
func assertNoScanWorkers(t *testing.T) {
	t.Helper()
	t.Cleanup(func() {
		deadline := time.Now().Add(2 * time.Second)
		for {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			leaked := 0
			for _, g := range bytes.Split(buf, []byte("\n\n")) {
				if bytes.Contains(g, []byte("repro/internal/morsel.")) {
					leaked++
				}
			}
			if leaked == 0 {
				return
			}
			if time.Now().After(deadline) {
				t.Errorf("%d scan workers outlived the query:\n%s", leaked, buf)
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
	})
}

// resultRows flattens a result into row-major cells, in order.
func resultRows(r *Result) [][]columnar.Value {
	var out [][]columnar.Value
	for _, b := range r.Batches {
		out = append(out, b.RowMajor()...)
	}
	return out
}

// A LIMIT abandons the scan mid-stream at any width: with workers
// prefetching segments it returns the rows the serial pull does, and
// the workers are gone once Execute returns.
func TestVolcanoLimitAtEveryWidth(t *testing.T) {
	assertNoScanWorkers(t)
	const segments = 8
	vo := NewVolcanoEngine(fabric.NewCluster(fabric.LegacyClusterConfig()), 256*sim.MB)
	vo.Storage.SegmentRows = testRows / segments
	if err := vo.CreateTable("lineitem", workload.LineitemSchema()); err != nil {
		t.Fatal(err)
	}
	if err := vo.Load("lineitem", workload.GenLineitem(workload.DefaultLineitemConfig(testRows))); err != nil {
		t.Fatal(err)
	}
	if u := vo.cpu.Units(); u < 4 {
		t.Fatalf("volcano CPU has %d units; the test needs 4", u)
	}
	q := plan.NewQuery("lineitem").WithLimit(10)
	var want [][]columnar.Value
	for _, workers := range []int{1, 2, 4} {
		vo.Workers = workers
		res, err := vo.Execute(context.Background(), q)
		if err != nil {
			t.Fatalf("w=%d: %v", workers, err)
		}
		got := resultRows(res)
		if len(got) != 10 {
			t.Fatalf("w=%d: %d rows, want 10", workers, len(got))
		}
		if workers == 1 {
			want = got
		} else if !reflect.DeepEqual(got, want) {
			t.Errorf("w=%d: rows differ from the serial pull's", workers)
		}
	}
}

// A corrupt segment fails a parallel Volcano scan with the error the
// serial scan gives, and takes the scan's workers down with it.
func TestVolcanoDetectsCorruptSegmentAtWidth(t *testing.T) {
	assertNoScanWorkers(t)
	_, vo, _ := newEngines(t)
	meta, err := vo.Storage.Table("lineitem")
	if err != nil {
		t.Fatal(err)
	}
	key := meta.SegmentKeys[0]
	blob, err := vo.Storage.Store().Get(context.Background(), key)
	if err != nil {
		t.Fatal(err)
	}
	mangled := append([]byte(nil), blob...)
	mangled[len(mangled)-3] ^= 0x01
	vo.Storage.Store().Put(key, mangled)

	var errs [2]error
	for i, workers := range []int{1, 3} {
		vo.Workers = workers
		if _, errs[i] = vo.Execute(context.Background(), plan.NewQuery("lineitem").WithCount()); errs[i] == nil {
			t.Fatalf("w=%d: volcano returned a count from a corrupted segment", workers)
		}
	}
	if errs[1].Error() != errs[0].Error() {
		t.Errorf("w=3 failed with %q, want the serial scan's %q", errs[1], errs[0])
	}
}
