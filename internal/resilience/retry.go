package resilience

import (
	"context"
	"time"

	"repro/internal/sim"
)

// Retry is the fault retry, written once: a replica read after a
// transient fault and a scan's segment after a failed checksum. try makes
// attempt n (0 first) and says whether its error is worth another; that
// rule and the counters stay the caller's. Retry stops at a success, an
// error not worth retrying, a done ctx, maxRetries retries, or a token
// budget denies (one per retry; a nil budget grants all). Each retry first
// sleeps on clk: base, doubling, capped at 8x base; base <= 0 skips it.
// It returns the retries granted, whether budget denied one, and the last
// attempt's error, or ctx's if the sleep was cut short.
func Retry(ctx context.Context, clk *sim.Clock, budget *Budget, maxRetries int, base time.Duration,
	try func(n int) (retry bool, err error)) (retries int, denied bool, err error) {
	for n := 0; ; n++ {
		retry, err := try(n)
		if err == nil || !retry || (ctx != nil && ctx.Err() != nil) || n >= maxRetries {
			return n, false, err
		}
		if !budget.TryAcquire() {
			return n, true, err
		}
		if base > 0 {
			if err := clk.Sleep(ctx, min(base<<uint(n), 8*base)); err != nil {
				return n + 1, false, err
			}
		}
	}
}
