package resilience

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/sim"
)

var errFlaky = errors.New("flaky")

// failing is an attempt that fails retryably until attempt ok, recording
// the clock's reading at every attempt.
func failing(clk *sim.Clock, ok int, at *[]time.Duration) func(int) (bool, error) {
	t0 := clk.Now()
	return func(n int) (bool, error) {
		*at = append(*at, clk.Since(t0))
		if n == ok {
			return false, nil
		}
		return true, errFlaky
	}
}

// The backoff starts at base, doubles per retry and stops doubling at
// 8x base; the retries are counted and the first success ends the loop.
func TestRetryBacksOffBoundedExponentially(t *testing.T) {
	clk := sim.NewManualClock(time.Unix(0, 0))
	var at []time.Duration
	retries, denied, err := Retry(context.Background(), clk, nil, 10, time.Millisecond, failing(clk, 5, &at))
	if retries != 5 || denied || err != nil {
		t.Fatalf("Retry = %d, %v, %v; want 5 retries, no denial, no error", retries, denied, err)
	}
	ms := time.Millisecond
	want := []time.Duration{0, ms, 3 * ms, 7 * ms, 15 * ms, 23 * ms}
	if len(at) != len(want) {
		t.Fatalf("attempts at %v, want %v", at, want)
	}
	for i := range want {
		if at[i] != want[i] {
			t.Fatalf("attempts at %v, want %v", at, want)
		}
	}
}

// A retry cap of 0 makes one attempt; a cap of 2 makes three, and the
// last attempt's error comes back. A base of 0 never sleeps.
func TestRetryStopsAtTheCap(t *testing.T) {
	clk := sim.NewManualClock(time.Unix(0, 0))
	for _, max := range []int{0, 2} {
		var at []time.Duration
		retries, denied, err := Retry(nil, clk, nil, max, 0, failing(clk, -1, &at))
		if retries != max || denied || err != errFlaky || len(at) != max+1 {
			t.Errorf("cap %d: %d attempts, Retry = %d, %v, %v", max, len(at), retries, denied, err)
		}
		if clk.Since(time.Unix(0, 0)) != 0 {
			t.Errorf("cap %d: a zero base slept", max)
		}
	}
}

// Each retry spends one token; a refusal ends the loop and is reported.
func TestRetrySpendsTheBudget(t *testing.T) {
	b := NewBudget(0, 2)
	var at []time.Duration
	retries, denied, err := Retry(context.Background(), nil, b, 5, 0, failing(nil, -1, &at))
	if retries != 2 || !denied || err != errFlaky || len(at) != 3 {
		t.Fatalf("%d attempts, Retry = %d, %v, %v; want 3 attempts, 2 retries, denied", len(at), retries, denied, err)
	}
	if b.Exhausted() != 1 || b.Tokens() != 0 {
		t.Errorf("budget exhausted %d with %v tokens left, want 1 and 0", b.Exhausted(), b.Tokens())
	}
}

// An error not worth retrying, or a done context, ends the loop
// without spending a token.
func TestRetryStopsWithoutSpending(t *testing.T) {
	b := NewBudget(0, 1)
	final := errors.New("final")
	if retries, denied, err := Retry(context.Background(), nil, b, 5, 0, func(int) (bool, error) { return false, final }); retries != 0 || denied || err != final {
		t.Errorf("final error: Retry = %d, %v, %v", retries, denied, err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var at []time.Duration
	if retries, denied, err := Retry(ctx, nil, b, 5, time.Hour, failing(nil, -1, &at)); retries != 0 || denied || err != errFlaky || len(at) != 1 {
		t.Errorf("done context: %d attempts, Retry = %d, %v, %v", len(at), retries, denied, err)
	}
	if b.Tokens() != 1 {
		t.Errorf("%v tokens left, want the 1 nobody spent", b.Tokens())
	}
}

// A context that ends during the backoff cuts the sleep short: the
// granted retry is counted and ctx's error comes back.
func TestRetryBackoffHonorsContext(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	start := time.Now()
	var at []time.Duration
	retries, _, err := Retry(ctx, nil, nil, 5, time.Hour, failing(nil, -1, &at))
	if retries != 1 || !errors.Is(err, context.DeadlineExceeded) || len(at) != 1 {
		t.Errorf("%d attempts, Retry = %d, %v; want 1 attempt, 1 retry, the deadline", len(at), retries, err)
	}
	if d := time.Since(start); d >= time.Minute {
		t.Errorf("Retry slept %v past a 1 ms deadline", d)
	}
}
