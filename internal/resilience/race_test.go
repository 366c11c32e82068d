package resilience

import (
	"context"
	"sync/atomic"
	"testing"
	"time"
)

// fired returns a hedge that has already fired.
func fired() <-chan time.Time {
	ch := make(chan time.Time, 1)
	ch <- time.Time{}
	return ch
}

// never is a racer that must not run.
func never(t *testing.T) func(context.Context) string {
	return func(context.Context) string {
		t.Error("second started")
		return "second"
	}
}

// seen records every result Race hands to done, in order.
type seen []string

func (s *seen) done(accept string) func(string, bool) bool {
	return func(r string, second bool) bool {
		if second {
			r += "(second)"
		}
		*s = append(*s, r)
		return r == accept
	}
}

func TestRaceFirstWinsAlone(t *testing.T) {
	var got seen
	launched, denied := Race(context.Background(), nil, nil,
		func(context.Context) string { return "first" }, never(t), got.done("first"))
	if launched || denied {
		t.Errorf("launched, denied = %v, %v; want neither", launched, denied)
	}
	if len(got) != 1 || got[0] != "first" {
		t.Errorf("done saw %v, want [first]", got)
	}
}

// The hedge fires while first stalls: second wins, first is cancelled,
// done sees both, and first has returned by the time Race does.
func TestRaceHedgeWinsAndCancelsFirst(t *testing.T) {
	var got seen
	var firstReturned atomic.Bool
	first := func(ctx context.Context) string {
		defer firstReturned.Store(true)
		<-ctx.Done()
		return "cancelled"
	}
	second := func(context.Context) string { return "second" }
	budget := NewBudget(0, 1)
	launched, denied := Race(context.Background(), fired(), budget, first, second, got.done("second(second)"))
	if !launched || denied {
		t.Errorf("launched, denied = %v, %v; want launched", launched, denied)
	}
	if len(got) != 2 || got[0] != "second(second)" || got[1] != "cancelled" {
		t.Errorf("done saw %v, want [second(second) cancelled]", got)
	}
	if !firstReturned.Load() {
		t.Error("Race returned before the cancelled racer did")
	}
	if budget.Tokens() != 0 {
		t.Errorf("budget holds %v tokens, want the hedge to have spent its one", budget.Tokens())
	}
}

// An empty budget refuses the hedge: denied, and second never starts.
func TestRaceBudgetRefuses(t *testing.T) {
	budget := NewBudget(0, 1)
	budget.TryAcquire() // spend the startup token
	first := func(context.Context) string {
		// Finish only once the hedge has been refused.
		for budget.Exhausted() == 0 {
			time.Sleep(time.Millisecond)
		}
		return "first"
	}
	var got seen
	launched, denied := Race(context.Background(), fired(), budget, first, never(t), got.done("first"))
	if launched || !denied {
		t.Errorf("launched, denied = %v, %v; want denied", launched, denied)
	}
	if len(got) != 1 || got[0] != "first" {
		t.Errorf("done saw %v, want [first]", got)
	}
}

// A first racer that fails before the hedge fires ends the race with no
// winner; second never starts.
func TestRaceFirstFailsBeforeHedge(t *testing.T) {
	var got seen
	hedge := make(chan time.Time) // never fires
	launched, denied := Race(context.Background(), hedge, nil,
		func(context.Context) string { return "failed" }, never(t), got.done("ok"))
	if launched || denied {
		t.Errorf("launched, denied = %v, %v; want neither", launched, denied)
	}
	if len(got) != 1 || got[0] != "failed" {
		t.Errorf("done saw %v, want [failed]", got)
	}
}

// A first result done rejects keeps the race open: the second racer,
// already running, can still win.
func TestRaceRejectedFirstLeavesSecond(t *testing.T) {
	secondStarted := make(chan struct{})
	firstSeen := make(chan struct{})
	first := func(context.Context) string {
		<-secondStarted
		return "corrupt"
	}
	second := func(ctx context.Context) string {
		close(secondStarted)
		select {
		case <-firstSeen:
			return "good"
		case <-ctx.Done():
			return "cancelled"
		}
	}
	var got seen
	done := got.done("good(second)")
	launched, _ := Race(context.Background(), fired(), nil, first, second, func(r string, second bool) bool {
		won := done(r, second)
		if !second {
			close(firstSeen)
		}
		return won
	})
	if !launched {
		t.Error("second did not start")
	}
	if len(got) != 2 || got[0] != "corrupt" || got[1] != "good(second)" {
		t.Errorf("done saw %v, want [corrupt good(second)]", got)
	}
}
