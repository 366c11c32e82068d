// Package morsel is the claim-run-reorder loop of morsel-driven
// parallelism, written once for the storage server's segment scan and
// the Volcano engine's: run does what any worker may do with index i,
// and the caller does the order-sensitive rest on its own goroutine,
// taking the results from Next in index order.
package morsel

import (
	"context"
	"sync"
	"sync/atomic"
)

// Stream hands back run's results over an index range in index order.
// Its caller must call Stop once done with it, whether or not Next ran
// out.
type Stream[T any] struct {
	ctx     context.Context
	run     func(ctx context.Context, i, lane int) T
	next, n int // the index Next hands back next; the range's end

	cancel  context.CancelFunc // width > 1: stops the workers,
	results chan indexed[T]    // which send what they ran here,
	pend    map[int]T          // and the results ahead of next wait here
}

type indexed[T any] struct {
	i int
	v T
}

// Start runs run over the indices [from, n), width at a time. At width 1
// nothing starts: each Next checks ctx and calls run(ctx, i, 0) inline,
// so a caller that stops asking stops the work. At width w > 1, w
// goroutines claim indices from a shared counter, checking ctx before
// each claim, and run index i on lane i mod w — a position, so what a
// lane is charged does not depend on scheduling.
func Start[T any](ctx context.Context, from, n, width int, run func(ctx context.Context, i, lane int) T) Stream[T] {
	s := Stream[T]{ctx: ctx, run: run, next: from, n: n}
	if width <= 1 {
		return s
	}
	// A fresh variable, not ctx: a parameter the workers capture would
	// be moved to the heap on every call, width 1 included.
	wctx, cancel := context.WithCancel(ctx)
	results := make(chan indexed[T], width) // a slot a worker: each may finish one morsel ahead of Next
	s.cancel, s.results, s.pend = cancel, results, make(map[int]T, width)
	var claim atomic.Int64
	claim.Store(int64(from))
	var wg sync.WaitGroup
	wg.Add(width)
	for w := 0; w < width; w++ {
		go func() {
			defer wg.Done()
			for i := int(claim.Add(1) - 1); i < n && wctx.Err() == nil; i = int(claim.Add(1) - 1) {
				results <- indexed[T]{i, run(wctx, i, i%width)} // drained until closed
			}
		}()
	}
	go func() { wg.Wait(); close(results) }()
	return s
}

// Next returns the next index's result; false once the range is done, or
// early when ctx ended or Stop was called.
func (s *Stream[T]) Next() (v T, ok bool) {
	if s.next >= s.n {
		return v, false
	}
	if s.results == nil {
		if s.ctx.Err() != nil {
			return v, false
		}
		i := s.next
		s.next++
		return s.run(s.ctx, i, 0), true
	}
	for {
		if v, ok = s.pend[s.next]; ok {
			delete(s.pend, s.next)
			s.next++
			return v, true
		}
		r, open := <-s.results
		if !open {
			return v, false
		}
		s.pend[r.i] = r.v
	}
}

// Stop ends the stream: it cancels the workers, waits for them and hands
// drop, on the caller's goroutine, each result that was run and never
// returned by Next, once.
func (s *Stream[T]) Stop(drop func(T)) {
	s.next = s.n
	if s.results == nil {
		return
	}
	s.cancel()
	for r := range s.results {
		drop(r.v)
	}
	for _, v := range s.pend {
		drop(v)
	}
	clear(s.pend)
}
