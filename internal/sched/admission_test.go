package sched

import (
	"context"
	"errors"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/plan"
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

// The offline flag is the only record of a failed device admission
// reads: a variant placing work on an offline device is never admitted,
// and when every variant does, admission refuses the query.
func TestAdmitSkipsVariantsOnOfflineDevices(t *testing.T) {
	_, v0, _ := twoNodeVariants(t)
	avoids := func(d *fabric.Device) func(*plan.Physical) bool {
		return func(v *plan.Physical) bool { return !slices.Contains(v.Devices(), d) }
	}
	var dead *fabric.Device
	for _, d := range v0[0].Devices() {
		if slices.ContainsFunc(v0, avoids(d)) {
			dead = d
			break
		}
	}
	if dead == nil {
		t.Fatal("every variant places work on every device of the top-ranked one")
	}
	dead.SetOffline(true)
	want := v0[slices.IndexFunc(v0, avoids(dead))]

	s := New(nil)
	adm, err := s.Admit(context.Background(), v0)
	if err != nil {
		t.Fatal(err)
	}
	if adm.Plan != want {
		t.Errorf("admitted %q with %s offline, want %q", adm.Variant, dead.Name, want.Variant)
	}
	s.Release(adm)

	onDead := slices.DeleteFunc(slices.Clone(v0), avoids(dead))
	if _, err := s.Admit(context.Background(), onDead); err == nil || !strings.Contains(err.Error(), "place work on offline devices") {
		t.Errorf("admitting %d variants all on offline %s: err = %v, want the offline refusal", len(onDead), dead.Name, err)
	}
	if s.ActiveCount() != 0 {
		t.Errorf("a refused admission holds a slot: ActiveCount = %d", s.ActiveCount())
	}
}
