package morsel

import (
	"bytes"
	"context"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"
)

// done is one run call's result: the index and the lane it ran on.
type done struct{ i, lane int }

// delays gives each of n indices a random run time under 200 µs, fixed
// before the workers start so they read it without racing.
func delays(seed int64, n int) []time.Duration {
	rng := rand.New(rand.NewSource(seed))
	d := make([]time.Duration, n)
	for i := range d {
		d[i] = time.Duration(rng.Intn(200)) * time.Microsecond
	}
	return d
}

// sleepy is a run that sleeps its index's delay and reports where it ran.
func sleepy(d []time.Duration) func(context.Context, int, int) done {
	return func(_ context.Context, i, lane int) done {
		time.Sleep(d[i])
		return done{i, lane}
	}
}

// assertNoWorkers registers a cleanup that fails the test if a stream's
// goroutine is still alive once the test body returns.
func assertNoWorkers(t *testing.T) {
	t.Helper()
	t.Cleanup(func() {
		deadline := time.Now().Add(2 * time.Second)
		for {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			leaked := 0
			for _, g := range bytes.Split(buf, []byte("\n\n")) {
				if bytes.Contains(g, []byte("internal/morsel.Start")) {
					leaked++
				}
			}
			if leaked == 0 {
				return
			}
			if time.Now().After(deadline) {
				t.Errorf("%d stream goroutines outlived Stop:\n%s", leaked, buf)
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
	})
}

// goid is the calling goroutine's id, read from its stack header.
func goid() string {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	return string(bytes.Fields(buf)[1])
}

// Every index comes back once, in index order, from the lane i mod w
// (lane 0 at width 1), whatever order the workers finish in.
func TestInIndexOrderOnLaneIModW(t *testing.T) {
	assertNoWorkers(t)
	const from, n = 3, 60
	for width := 1; width <= 4; width++ {
		s := Start(context.Background(), from, n, width, sleepy(delays(int64(width), n)))
		want := from
		for r, ok := s.Next(); ok; r, ok = s.Next() {
			if r.i != want {
				t.Fatalf("w=%d: got index %d, want %d", width, r.i, want)
			}
			if lane := r.i % width; r.lane != lane {
				t.Errorf("w=%d: index %d ran on lane %d, want %d", width, r.i, r.lane, lane)
			}
			want++
		}
		s.Stop(func(r done) { t.Errorf("w=%d: index %d dropped after a full run", width, r.i) })
		if want != n {
			t.Errorf("w=%d: stream ended at %d, want %d", width, want, n)
		}
	}
}

// At width 1 Start starts no goroutine and run is called by Next, on the
// caller's goroutine, for one index at a time: nothing runs ahead of the
// caller.
func TestWidthOneRunsInlineOnDemand(t *testing.T) {
	assertNoWorkers(t)
	caller, goroutines := goid(), runtime.NumGoroutine()
	calls := 0
	s := Start(context.Background(), 0, 5, 1, func(_ context.Context, i, lane int) int {
		if g := goid(); g != caller {
			t.Errorf("run(%d) on goroutine %s, want the caller's %s", i, g, caller)
		}
		if lane != 0 {
			t.Errorf("run(%d) on lane %d at width 1", i, lane)
		}
		calls++
		return i
	})
	if n := runtime.NumGoroutine(); n != goroutines {
		t.Errorf("Start at width 1 went from %d goroutines to %d", goroutines, n)
	}
	for k := 0; k < 3; k++ {
		if calls != k {
			t.Fatalf("run called %d times before Next number %d", calls, k+1)
		}
		if v, ok := s.Next(); !ok || v != k {
			t.Fatalf("Next = %d, %v; want %d, true", v, ok, k)
		}
	}
	s.Stop(func(v int) { t.Errorf("width 1 dropped %d: it holds no result Next did not return", v) })
	if _, ok := s.Next(); ok || calls != 3 {
		t.Errorf("after Stop: Next ran on (%d calls)", calls)
	}
}

// Cancelling ctx mid-stream ends Next before the range does: at width 1
// at once, at width w once the morsels already running have landed.
func TestCancelEndsNext(t *testing.T) {
	assertNoWorkers(t)
	const n = 400
	for width := 1; width <= 4; width++ {
		ctx, cancel := context.WithCancel(context.Background())
		s := Start(ctx, 0, n, width, sleepy(delays(int64(width), n)))
		got := 0
		for _, ok := s.Next(); ok; _, ok = s.Next() {
			got++
			if got == 10 {
				cancel()
			}
		}
		s.Stop(func(done) {})
		if width == 1 && got != 10 {
			t.Errorf("w=1: Next returned %d results, want 10: it must check ctx before each index", got)
		}
		if got >= n {
			t.Errorf("w=%d: Next ran the whole range past the cancel", width)
		}
		cancel()
	}
}

// Stop hands drop every result that was run and never returned by Next,
// each exactly once, whether the caller stopped early or ctx ended.
func TestStopDropsEachUndeliveredOnce(t *testing.T) {
	assertNoWorkers(t)
	const n = 200
	for width := 1; width <= 4; width++ {
		for _, cancelled := range []bool{false, true} {
			var mu sync.Mutex
			ran := map[int]int{}
			d := delays(int64(width), n)
			ctx, cancel := context.WithCancel(context.Background())
			s := Start(ctx, 0, n, width, func(ctx context.Context, i, lane int) int {
				// Counted as it starts: a run still going when Stop
				// returns has no result to hand drop.
				mu.Lock()
				ran[i]++
				mu.Unlock()
				time.Sleep(d[i])
				return i
			})
			seen := map[int]int{}
			for k := 0; k < 7; k++ {
				v, ok := s.Next()
				if !ok {
					t.Fatalf("w=%d: stream ended after %d results", width, k)
				}
				seen[v]++
			}
			if cancelled {
				cancel()
				for v, ok := s.Next(); ok; v, ok = s.Next() {
					seen[v]++
				}
			}
			s.Stop(func(v int) { seen[v]++ })
			cancel()
			mu.Lock()
			for i, c := range ran {
				if c != 1 {
					t.Errorf("w=%d: index %d ran %d times", width, i, c)
				}
				if seen[i] != 1 {
					t.Errorf("w=%d cancelled=%v: index %d was run and handed back %d times, want once", width, cancelled, i, seen[i])
				}
			}
			for i := range seen {
				if ran[i] == 0 {
					t.Errorf("w=%d: index %d handed back but never run", width, i)
				}
			}
			mu.Unlock()
		}
	}
}

// A width-1 stream costs nothing beyond what run does: no context, no
// claim counter, no wait group, no channel, no map.
func TestWidthOneAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own schedule")
	}
	ctx := context.Background()
	run := func(_ context.Context, i, lane int) int { return i + lane }
	allocs := testing.AllocsPerRun(100, func() {
		s := Start(ctx, 0, 8, 1, run)
		for _, ok := s.Next(); ok; _, ok = s.Next() {
		}
		s.Stop(func(int) {})
	})
	if allocs != 0 {
		t.Errorf("a width-1 stream allocates %v times", allocs)
	}
}
