package resilience

import (
	"testing"
	"time"
)

func TestTrackerEWMAAndThreshold(t *testing.T) {
	tr := NewTracker(0.5, 2)
	if _, ok := tr.Latency("a"); ok {
		t.Fatal("latency reported with zero samples")
	}
	tr.Observe("a", 100*time.Microsecond)
	if _, ok := tr.Latency("a"); ok {
		t.Fatal("latency reported below MinSamples")
	}
	tr.Observe("a", 100*time.Microsecond)
	lat, ok := tr.Latency("a")
	if !ok || lat != 100*time.Microsecond {
		t.Fatalf("latency = %v, %v; want 100us, true", lat, ok)
	}
	// A big outlier moves both the EWMA and the deviation.
	tr.Observe("a", 900*time.Microsecond)
	lat, _ = tr.Latency("a")
	if lat <= 100*time.Microsecond || lat >= 900*time.Microsecond {
		t.Fatalf("EWMA %v not between samples", lat)
	}
	th, ok := tr.Threshold("a", 3)
	if !ok || th <= lat {
		t.Fatalf("threshold %v should exceed ewma %v", th, lat)
	}
	if n := tr.Samples("a"); n != 3 {
		t.Fatalf("samples = %d, want 3", n)
	}
}

func TestTrackerRank(t *testing.T) {
	tr := NewTracker(0.5, 1)
	tr.Observe("slow", time.Millisecond)
	tr.Observe("fast", 10*time.Microsecond)
	got := tr.Rank([]string{"slow", "fast"})
	if got[0] != "fast" || got[1] != "slow" {
		t.Fatalf("rank = %v, want [fast slow]", got)
	}
	// Cold keys sort first (probe them), stably.
	got = tr.Rank([]string{"slow", "cold1", "cold2", "fast"})
	if got[0] != "cold1" || got[1] != "cold2" || got[2] != "fast" || got[3] != "slow" {
		t.Fatalf("rank with cold keys = %v", got)
	}
	// Nil tracker is a pass-through.
	var nilTr *Tracker
	in := []string{"b", "a"}
	if got := nilTr.Rank(in); got[0] != "b" {
		t.Fatalf("nil tracker reordered: %v", got)
	}
}

// Integrity strikes demote a key to last place in the ranking no matter
// how fast it is, and forgiveness restores latency order.
func TestTrackerCorruptStrikes(t *testing.T) {
	tr := NewTracker(0.5, 1)
	tr.Observe("fast", 10*time.Microsecond)
	tr.Observe("slow", time.Millisecond)
	tr.MarkCorrupt("fast")
	if tr.CorruptStrikes("fast") != 1 {
		t.Fatalf("strikes = %d, want 1", tr.CorruptStrikes("fast"))
	}
	got := tr.Rank([]string{"fast", "slow", "cold"})
	if got[len(got)-1] != "fast" {
		t.Fatalf("struck key not last: %v", got)
	}
	// Cold keys still probe first among the unstruck.
	if got[0] != "cold" {
		t.Fatalf("cold key not first among clean: %v", got)
	}
	tr.ClearCorrupt("fast")
	if tr.CorruptStrikes("fast") != 0 {
		t.Fatal("ClearCorrupt left strikes")
	}
	got = tr.Rank([]string{"slow", "fast"})
	if got[0] != "fast" {
		t.Fatalf("forgiven key not restored to latency order: %v", got)
	}
	// Nil tracker and unknown keys are safe no-ops.
	var nilTr *Tracker
	nilTr.MarkCorrupt("x")
	nilTr.ClearCorrupt("x")
	if nilTr.CorruptStrikes("x") != 0 {
		t.Fatal("nil tracker reported strikes")
	}
	tr.ClearCorrupt("never-seen")
}

func TestBreakerLifecycle(t *testing.T) {
	now := time.Unix(0, 0)
	b := NewBreakerSet(BreakerConfig{TripThreshold: 2, Cooldown: time.Second, HalfOpenProbes: 1})

	if !b.Allow("dev", now) {
		t.Fatal("fresh breaker should allow")
	}
	if b.Failure("dev", now) {
		t.Fatal("a failure below the threshold reported a trip")
	}
	if !b.Allow("dev", now) || b.State("dev") != Closed {
		t.Fatal("one failure below threshold should stay closed")
	}
	if !b.Failure("dev", now) {
		t.Fatal("the failure that crossed the threshold did not report the trip")
	}
	if b.State("dev") != Open {
		t.Fatalf("state = %v, want open after 2 failures", b.State("dev"))
	}
	if b.Allow("dev", now) {
		t.Fatal("open breaker should reject")
	}
	if b.Failure("dev", now) {
		t.Fatal("a failure on an open breaker reported a second trip")
	}

	// After the cooldown the breaker half-opens and admits one probe.
	now = now.Add(time.Second)
	if !b.Allow("dev", now) {
		t.Fatal("half-open should admit the first probe")
	}
	if b.State("dev") != HalfOpen {
		t.Fatalf("state = %v, want half-open", b.State("dev"))
	}
	if b.Allow("dev", now) {
		t.Fatal("second probe should be rejected while the first is out")
	}
	// Probe fails: re-open immediately.
	if !b.Failure("dev", now) {
		t.Fatal("the failed probe did not report the trip")
	}
	if b.State("dev") != Open || b.Allow("dev", now) {
		t.Fatal("failed probe should re-open")
	}

	// Next cycle: probe succeeds, breaker closes.
	now = now.Add(time.Second)
	if !b.Allow("dev", now) {
		t.Fatal("half-open should admit a probe again")
	}
	b.Success("dev")
	if b.State("dev") != Closed {
		t.Fatalf("state = %v, want closed after probe success", b.State("dev"))
	}
	if !b.Allow("dev", now) || !b.Allow("dev", now) {
		t.Fatal("closed breaker should admit freely")
	}
	// Success also clears the failure streak.
	b.Failure("dev", now)
	b.Success("dev")
	b.Failure("dev", now)
	if b.State("dev") != Closed {
		t.Fatal("streak should reset on success")
	}
}

func TestBreakerProbeReplenish(t *testing.T) {
	now := time.Unix(0, 0)
	b := NewBreakerSet(BreakerConfig{TripThreshold: 1, Cooldown: time.Second, HalfOpenProbes: 1})
	b.Failure("dev", now)
	now = now.Add(time.Second)
	if !b.Allow("dev", now) {
		t.Fatal("half-open should admit a probe")
	}
	// The probe's caller dies without reporting. Before another cooldown
	// the slot stays consumed...
	now = now.Add(time.Second / 2)
	if b.Allow("dev", now) {
		t.Fatal("slot should still be held")
	}
	// ...but after a full cooldown it is replenished.
	now = now.Add(time.Second / 2)
	if !b.Allow("dev", now) {
		t.Fatal("stale probe slot should be replenished")
	}
}

func TestBreakerOnChange(t *testing.T) {
	now := time.Unix(0, 0)
	b := NewBreakerSet(BreakerConfig{TripThreshold: 1, Cooldown: time.Second, HalfOpenProbes: 1})
	var events []BreakerState
	b.OnChange = func(key string, s BreakerState) { events = append(events, s) }
	b.Failure("dev", now)
	now = now.Add(time.Second)
	b.Allow("dev", now)
	b.Success("dev")
	want := []BreakerState{Open, HalfOpen, Closed}
	if len(events) != len(want) {
		t.Fatalf("events = %v, want %v", events, want)
	}
	for i := range want {
		if events[i] != want[i] {
			t.Fatalf("events = %v, want %v", events, want)
		}
	}
}

func TestBreakerNilAndUnknownKey(t *testing.T) {
	var b *BreakerSet
	now := time.Unix(0, 0)
	if !b.Allow("x", now) || b.State("x") != Closed || b.Failure("x", now) {
		t.Fatal("nil breaker set should admit everything and never trip")
	}
	b.Success("x")

	real := NewBreakerSet(BreakerConfig{TripThreshold: 1, Cooldown: time.Second})
	real.Success("never-seen") // no-op, must not create state
	if real.State("never-seen") != Closed {
		t.Fatal("unknown key should be closed")
	}
}

func TestBudget(t *testing.T) {
	b := NewBudget(0.5, 2)
	// Starts full: 2 tokens.
	if !b.TryAcquire() || !b.TryAcquire() {
		t.Fatal("budget should start full")
	}
	if b.TryAcquire() {
		t.Fatal("empty budget should deny")
	}
	if b.Exhausted() != 1 {
		t.Fatalf("exhausted = %d, want 1", b.Exhausted())
	}
	// Two observed ops earn one token.
	b.ObserveOp()
	if b.TryAcquire() {
		t.Fatal("half a token should not grant")
	}
	b.ObserveOp()
	if !b.TryAcquire() {
		t.Fatal("one full token should grant")
	}
	// Refill caps at burst.
	for i := 0; i < 100; i++ {
		b.ObserveOp()
	}
	if got := b.Tokens(); got != 2 {
		t.Fatalf("tokens = %v, want capped at 2", got)
	}
	// Nil budget grants everything.
	var nilB *Budget
	if !nilB.TryAcquire() || nilB.Exhausted() != 0 {
		t.Fatal("nil budget should grant")
	}
	nilB.ObserveOp()
}
