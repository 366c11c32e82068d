package resilience

import (
	"context"
	"time"
)

// Race is the hedge of the tail-at-scale playbook, written once for
// every straggler defense: a replica read racing a second replica and a
// scan morsel racing a late copy of itself. first starts at once; if
// hedge fires before a result has won and budget grants a token, second
// starts beside it. done sees every result in arrival order and says
// whether it wins. Once one has, the other racer's context is cancelled,
// and Race waits for it and hands its result to done too, so no racer
// outlives the call. When the racers launched all finish without a
// winner, Race returns; the hedge no longer matters then. A nil hedge
// never fires. launched reports whether second ran, denied whether the
// budget refused it.
func Race[T any](ctx context.Context, hedge <-chan time.Time, budget *Budget,
	first, second func(context.Context) T, done func(r T, second bool) (won bool)) (launched, denied bool) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	type result struct {
		r      T
		second bool
	}
	results := make(chan result, 2)
	start := func(run func(context.Context) T, second bool) {
		go func() { results <- result{run(ctx), second} }()
	}
	start(first, false)
	for running := 1; running > 0; {
		select {
		case res := <-results:
			running--
			if done(res.r, res.second) {
				cancel()
			}
		case <-hedge:
			hedge = nil
			launched = budget.TryAcquire()
			denied = !launched
			if launched {
				running++
				start(second, true)
			}
		}
	}
	return launched, denied
}
