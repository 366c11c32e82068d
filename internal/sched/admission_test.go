package sched

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/wiring"
)

// waitFor polls until cond holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

func TestMaxActiveQueuesFIFO(t *testing.T) {
	_, v0, _ := twoNodeVariants(t)
	s := New(nil)
	s.MaxActive = 1

	a1, err := s.Admit(context.Background(), v0)
	if err != nil {
		t.Fatal(err)
	}
	// Park two waiters, in a known order.
	order := make(chan int, 2)
	admitted := make(chan *Admission, 2)
	for i := 1; i <= 2; i++ {
		i := i
		prevDepth := i - 1
		waitFor(t, "queue to grow", func() bool { return s.QueueDepth() == prevDepth })
		go func() {
			adm, err := s.Admit(context.Background(), v0)
			if err != nil {
				t.Error(err)
			}
			order <- i
			admitted <- adm
		}()
		waitFor(t, "waiter to park", func() bool { return s.QueueDepth() == i })
	}

	// Each release grants exactly the next waiter, oldest first.
	s.Release(a1)
	if got := <-order; got != 1 {
		t.Fatalf("first grant went to waiter %d", got)
	}
	if s.ActiveCount() != 1 || s.QueueDepth() != 1 {
		t.Errorf("after first grant: active=%d queued=%d, want 1/1", s.ActiveCount(), s.QueueDepth())
	}
	s.Release(<-admitted)
	if got := <-order; got != 2 {
		t.Fatalf("second grant went to waiter %d", got)
	}
	s.Release(<-admitted)
	if s.ActiveCount() != 0 || s.QueueDepth() != 0 {
		t.Errorf("drained: active=%d queued=%d", s.ActiveCount(), s.QueueDepth())
	}
}

func TestQueueCapSheds(t *testing.T) {
	_, v0, _ := twoNodeVariants(t)
	s := New(nil)
	s.MaxActive = 1
	s.QueueCap = 1

	a1, err := s.Admit(context.Background(), v0)
	if err != nil {
		t.Fatal(err)
	}
	granted := make(chan *Admission, 1)
	go func() {
		adm, err := s.Admit(context.Background(), v0)
		if err != nil {
			t.Error(err)
		}
		granted <- adm
	}()
	waitFor(t, "waiter to park", func() bool { return s.QueueDepth() == 1 })

	// Queue full: the third arrival sheds immediately, holding nothing.
	_, err = s.Admit(context.Background(), v0)
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("err = %v, want ErrOverloaded", err)
	}
	if !strings.Contains(err.Error(), "queue full") {
		t.Errorf("shed reason %q does not mention the full queue", err)
	}

	s.Release(a1)
	s.Release(<-granted)
	if s.ActiveCount() != 0 || s.QueueDepth() != 0 {
		t.Error("resources leaked after shed")
	}
}

func TestDeadlineExpiresInQueue(t *testing.T) {
	_, v0, _ := twoNodeVariants(t)
	s := New(nil)
	s.MaxActive = 1

	a1, err := s.Admit(context.Background(), v0)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, err = s.Admit(ctx, v0)
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("err = %v, want ErrOverloaded for a deadline expiring in queue", err)
	}
	if s.QueueDepth() != 0 {
		t.Error("expired waiter still parked in the queue")
	}
	s.Release(a1)
	if s.ActiveCount() != 0 {
		t.Error("admission leaked")
	}
}

func TestCancelledWhileQueued(t *testing.T) {
	_, v0, _ := twoNodeVariants(t)
	s := New(nil)
	s.MaxActive = 1

	a1, err := s.Admit(context.Background(), v0)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	errs := make(chan error, 1)
	go func() {
		_, err := s.Admit(ctx, v0)
		errs <- err
	}()
	waitFor(t, "waiter to park", func() bool { return s.QueueDepth() == 1 })
	cancel()
	if err := <-errs; !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if s.QueueDepth() != 0 {
		t.Error("cancelled waiter still parked")
	}
	s.Release(a1)
}

func TestProjectedWaitShedsAgainstDeadline(t *testing.T) {
	_, v0, _ := twoNodeVariants(t)
	clk := sim.NewManualClock(time.Now())
	s := New(&wiring.Services{Clock: clk})
	s.MaxActive = 1

	// Teach the scheduler a realistic service time: one admitted plan
	// held for 50ms.
	a, err := s.Admit(context.Background(), v0)
	if err != nil {
		t.Fatal(err)
	}
	clk.Advance(50 * time.Millisecond)
	s.Release(a)

	// With one slot busy, a query whose deadline is far shorter than the
	// projected wait sheds immediately instead of queueing doomed.
	a1, err := s.Admit(context.Background(), v0)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Millisecond)
	defer cancel()
	_, err = s.Admit(ctx, v0)
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("err = %v, want ErrOverloaded", err)
	}
	if !strings.Contains(err.Error(), "projected") {
		t.Errorf("shed reason %q does not mention the projected wait", err)
	}
	if s.QueueDepth() != 0 {
		t.Error("doomed query was queued anyway")
	}
	s.Release(a1)
}

func TestFailureScoreDecaysAndCaps(t *testing.T) {
	_, v0, _ := twoNodeVariants(t)
	s := New(nil)
	const dev = "compute0.nic"

	// The score saturates at the cap no matter how many failures pile up.
	for i := 0; i < 30; i++ {
		s.NoteFailover(dev)
	}
	if got := s.FailureScore(dev); got != DefaultMaxFailureScore {
		t.Fatalf("FailureScore after 30 failovers = %v, want cap %v", got, DefaultMaxFailureScore)
	}

	// Each successful admission erodes the score geometrically, so a
	// recovered device is forgiven within a bounded number of admissions.
	prev := s.FailureScore(dev)
	forgiven := 0
	for i := 0; i < 40 && s.DeviceFailures(dev) > 0; i++ {
		a, err := s.Admit(context.Background(), v0)
		if err != nil {
			t.Fatal(err)
		}
		s.Release(a)
		got := s.FailureScore(dev)
		if got > prev {
			t.Fatalf("score rose from %v to %v on a clean admission", prev, got)
		}
		prev = got
		forgiven = i + 1
	}
	if s.DeviceFailures(dev) != 0 {
		t.Errorf("device never forgiven; score still %v after 40 admissions", s.FailureScore(dev))
	}
	if forgiven == 0 || forgiven > 25 {
		t.Errorf("forgiveness took %d admissions, want within (0, 25]", forgiven)
	}

	// A new failure on a clean record counts exactly once — the contract
	// the failover accounting in core relies on.
	s.NoteFailover(dev)
	if got := s.DeviceFailures(dev); got != 1 {
		t.Errorf("DeviceFailures after one failover = %d, want 1", got)
	}
}
