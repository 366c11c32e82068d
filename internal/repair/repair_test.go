package repair

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/obs/metrics"
	"repro/internal/resilience"
	"repro/internal/sim"
	"repro/internal/storage"
)

// newStore builds a 2-replica store holding n objects with distinct
// payloads, plus a verify func that accepts exactly the stored bytes.
// SetVerify replaces the blob verifier (the default checks segment
// checksums).
func (c *Controller) SetVerify(f func(key string, data []byte) error) {
	if c == nil || f == nil {
		return
	}
	c.verify = f
}

// Ledger returns a copy of the fault ledger so far.
func (c *Controller) Ledger() []Incident {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Incident(nil), c.ledger...)
}

func newStore(n int) (*storage.ObjectStore, func(string, []byte) error) {
	return newStoreR(n, 2)
}

func newStoreR(n, replicas int) (*storage.ObjectStore, func(string, []byte) error) {
	o := storage.NewObjectStore(nil)
	o.SetReplicas(replicas)
	want := make(map[string][]byte, n)
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("seg-%03d", i)
		payload := []byte("payload of " + key + " ------------")
		o.Put(key, payload)
		want[key] = payload
	}
	verify := func(key string, data []byte) error {
		if !bytes.Equal(data, want[key]) {
			return errors.New("payload mismatch")
		}
		return nil
	}
	return o, verify
}

// A scrub pass over a clean store verifies every replica blob and heals
// nothing; over a store with latent damage it escalates transient ->
// persistent and heals from the clean sibling.
func TestScrubPassDetectsAndHeals(t *testing.T) {
	o, verify := newStore(4)
	c := New(o, Config{})
	c.SetVerify(verify)

	sum := c.ScrubPass(context.Background())
	if sum.Clean != 8 || sum.Corrupt != 0 || sum.Healed != 0 || sum.Lost != 0 {
		t.Fatalf("clean-store scrub = %+v, want 8 clean", sum)
	}

	if !o.CorruptReplica("seg-001", 1) {
		t.Fatal("could not seed damage")
	}
	sum = c.ScrubPass(context.Background())
	if sum.Corrupt != 1 || sum.Healed != 1 {
		t.Fatalf("scrub of damaged store = %+v, want 1 corrupt healed", sum)
	}
	raw, err := o.ReadReplicaRaw(context.Background(), "seg-001", 1)
	if err != nil || verify("seg-001", raw) != nil {
		t.Fatalf("damaged blob not healed: err=%v", err)
	}

	// The ledger shows the escalation: transient suspicion first, then
	// the confirmed persistent verdict with the heal.
	var transient, persistent bool
	for _, inc := range c.Ledger() {
		if inc.Key != "seg-001" || inc.Replica != 1 {
			continue
		}
		switch inc.Verdict {
		case VerdictTransient:
			transient = true
		case VerdictPersistent:
			if !transient {
				t.Error("persistent verdict before transient suspicion")
			}
			if !inc.Healed {
				t.Error("persistent verdict not marked healed")
			}
			persistent = true
		}
	}
	if !transient || !persistent {
		t.Fatalf("ledger missing escalation: %+v", c.Ledger())
	}
	rep := c.Stats()
	if rep.ScrubRepairs != 1 {
		t.Errorf("ScrubRepairs = %d, want 1", rep.ScrubRepairs)
	}

	// A second pass finds everything clean again.
	sum = c.ScrubPass(context.Background())
	if sum.Corrupt != 0 || sum.Healed != 0 {
		t.Errorf("re-scrub after heal = %+v, want no repair work", sum)
	}
}

// A verify failure that does not reproduce on re-read stays a transient
// verdict: no repair happens.
func TestScrubTransientFlipNotRepaired(t *testing.T) {
	o, verify := newStore(1)
	c := New(o, Config{})
	var failed bool
	c.SetVerify(func(key string, data []byte) error {
		if key == "seg-000" && !failed {
			failed = true
			return errors.New("in-flight flip")
		}
		return verify(key, data)
	})
	sum := c.ScrubPass(context.Background())
	if sum.Corrupt != 0 || sum.Healed != 0 {
		t.Fatalf("transient flip was treated as persistent: %+v", sum)
	}
	if o.Totals().ReadRepairs != 0 {
		t.Error("transient flip triggered a write-back")
	}
	var sawTransient bool
	for _, inc := range c.Ledger() {
		if inc.Verdict == VerdictTransient {
			sawTransient = true
		}
		if inc.Verdict == VerdictPersistent {
			t.Errorf("unexpected persistent verdict: %+v", inc)
		}
	}
	if !sawTransient {
		t.Error("transient suspicion not ledgered")
	}
}

// Damage with no clean sibling left is unrecoverable: reported, never
// silently dropped.
func TestScrubUnrecoverable(t *testing.T) {
	o, verify := newStore(1)
	c := New(o, Config{})
	c.SetVerify(verify)
	o.CorruptReplica("seg-000", 0)
	o.CorruptReplica("seg-000", 1)
	sum := c.ScrubPass(context.Background())
	if sum.Healed != 0 {
		t.Fatalf("healed %d blobs with no clean source", sum.Healed)
	}
	if c.Stats().Unrecoverable == 0 {
		t.Fatal("unrecoverable damage not counted")
	}
}

// A failed replica is declared dead after DeadAfter, re-cloned from the
// survivors, and the restoration's MTTR recorded. With DeadAfter zero
// and no breaker attached, declaration happens on first sight.
func TestReclonePassRestoresFailedReplica(t *testing.T) {
	o, verify := newStore(5)
	c := New(o, Config{Streams: 2})
	c.SetVerify(verify)

	if lost := o.FailReplica(1); lost != 5 {
		t.Fatalf("FailReplica lost %d, want 5", lost)
	}
	if objects, _ := o.UnderReplicated(); objects != 5 {
		t.Fatalf("%d objects at risk, want 5", objects)
	}

	c.ReclonePass(context.Background())

	objects, slots := o.UnderReplicated()
	if objects != 0 || len(slots) != 0 {
		t.Fatalf("after re-clone: %d objects at risk, slots %v", objects, slots)
	}
	rep := c.Stats()
	if rep.Recloned != 5 {
		t.Errorf("Recloned = %d, want 5", rep.Recloned)
	}
	if rep.DeadDeclared != 1 {
		t.Errorf("DeadDeclared = %d, want 1", rep.DeadDeclared)
	}
	if rep.LastMTTR <= 0 {
		t.Error("completed restoration recorded no MTTR")
	}
	if rep.AtRiskObjects != 0 {
		t.Errorf("AtRiskObjects = %d after full restore", rep.AtRiskObjects)
	}
	// Every restored blob verifies clean.
	for _, key := range o.List("") {
		raw, err := o.ReadReplicaRaw(context.Background(), key, 1)
		if err != nil || verify(key, raw) != nil {
			t.Fatalf("restored %s/r1 bad: err=%v", key, err)
		}
	}
}

// With a breaker set wired, the dead-replica declaration waits for
// the breaker to open — the deadline alone is not a death sentence
// while reads still reach the replica.
func TestRecloneWaitsForOpenBreaker(t *testing.T) {
	o, verify := newStore(2)
	pol := resilience.NewPolicy()
	o.Services().Resilience = pol
	c := New(o, Config{})
	c.SetVerify(verify)

	o.FailReplica(0)
	// Breaker for store/r0 is still closed: no declaration despite the
	// zero DeadAfter deadline.
	c.ReclonePass(context.Background())
	if c.Stats().DeadDeclared != 0 {
		t.Fatal("replica declared dead with its breaker closed")
	}
	if objects, _ := o.UnderReplicated(); objects != 2 {
		t.Fatalf("re-clone ran before the breaker opened: %d at risk", objects)
	}

	// Reads of the lost slot (here the scrubber's raw reads; health
	// steering routes foreground reads away after the first strike) feed
	// the breaker organically.
	for i := 0; i < 6; i++ {
		if _, err := o.ReadReplicaRaw(context.Background(), o.List("")[0], 0); err == nil {
			t.Fatal("raw read of a lost slot succeeded")
		}
	}
	if pol.Breakers.State("store/r0") != resilience.Open {
		t.Fatal("lost-slot reads did not trip the breaker")
	}

	c.ReclonePass(context.Background())
	if c.Stats().DeadDeclared != 1 {
		t.Fatal("open breaker + deadline did not declare the replica dead")
	}
	if objects, _ := o.UnderReplicated(); objects != 0 {
		t.Fatalf("%d objects still at risk after re-clone", objects)
	}
	// The restored replica's breaker is closed again so steering can use
	// it without waiting out the cooldown.
	if st := pol.Breakers.State("store/r0"); st != resilience.Closed {
		t.Errorf("restored replica's breaker = %v, want Closed", st)
	}
	if pol.Health.CorruptStrikes("store/r0") != 0 {
		t.Error("restored replica still carries integrity strikes")
	}
}

// The DeadAfter deadline is honored: a loss younger than the deadline
// is not declared even with no breaker attached.
func TestDeadAfterDeadline(t *testing.T) {
	o, verify := newStore(1)
	c := New(o, Config{DeadAfter: time.Hour})
	c.SetVerify(verify)
	o.FailReplica(1)
	c.ReclonePass(context.Background())
	if c.Stats().DeadDeclared != 0 {
		t.Fatal("replica declared dead within DeadAfter")
	}
	if objects, _ := o.UnderReplicated(); objects != 1 {
		t.Fatal("re-clone ran within DeadAfter")
	}
}

// The SLO burn-rate pause holds repair back; a cancelled context
// unblocks the wait.
func TestAdmitQuantumGates(t *testing.T) {
	o, _ := newStore(1)
	c := New(o, Config{BurnMax: 1})
	slo := metrics.NewSLOTracker(time.Millisecond, 0.9)
	for i := 0; i < 10; i++ {
		slo.Observe(time.Now(), time.Second) // every request misses: burn far above 1
	}
	o.Services().SLO = slo
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := c.admitQuantum(ctx)
	if err == nil {
		t.Fatal("admitQuantum admitted through a burning SLO")
	}
	if time.Since(start) < 15*time.Millisecond {
		t.Error("admitQuantum returned before ctx expiry")
	}

	// No BurnMax, no pause: the same burning tracker admits immediately.
	c2 := New(o, Config{})
	if err := c2.admitQuantum(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// The token bucket paces: acquiring twice the burst at a finite rate
// takes measurable wall clock, and a cancelled context cuts the wait.
// A nil clock is the wall clock.
func TestThrottlePacing(t *testing.T) {
	th := &throttle{rate: 100_000} // 100 KB/s, burst 100 KB
	start := time.Now()
	if err := th.acquire(context.Background(), nil, 100_000); err != nil {
		t.Fatal(err) // the bucket starts empty: one second to fill the burst
	}
	if err := th.acquire(context.Background(), nil, 5_000); err != nil {
		t.Fatal(err) // 5 KB beyond the burst: ~50ms
	}
	if elapsed := time.Since(start); elapsed < 30*time.Millisecond {
		t.Errorf("120%% of burst acquired in %v, want >= 30ms of pacing", elapsed)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	th2 := &throttle{rate: 1} // 1 B/s: unpayable
	if err := th2.acquire(ctx, nil, 1_000_000); err == nil {
		t.Fatal("acquire outlived its context")
	}

	if err := (&throttle{}).acquire(nil, nil, 1<<30); err != nil {
		t.Fatal("zero-rate throttle paced")
	}
}

// On a manual clock the bucket's waits advance the clock instead of
// sleeping: an acquire past the burst moves it by exactly need/rate.
func TestThrottleAdvancesAManualClock(t *testing.T) {
	clk := sim.NewManualClock(time.Now())
	wall := time.Now()
	th := &throttle{rate: 1024} // burst 1 KiB
	t0 := clk.Now()
	if err := th.acquire(context.Background(), clk, 1024); err != nil {
		t.Fatal(err)
	}
	if got := clk.Since(t0); got != time.Second {
		t.Errorf("filling the empty burst advanced the clock %v, want 1s", got)
	}
	t1 := clk.Now()
	if err := th.acquire(context.Background(), clk, 512); err != nil {
		t.Fatal(err)
	}
	if got := clk.Since(t1); got != 500*time.Millisecond {
		t.Errorf("512 B past the spent burst at 1 KiB/s advanced the clock %v, want 500ms", got)
	}
	if real := time.Since(wall); real >= time.Second {
		t.Errorf("1.5s of pacing on a manual clock took %v of real time", real)
	}
}

// Foreground read-repairs land in the controller's ledgered counter via
// the store's OnRepair hook.
func TestReadRepairCounted(t *testing.T) {
	o, verify := newStore(1)
	c := New(o, Config{})
	c.SetVerify(verify)
	o.Verify = verify
	o.WriteBack = true
	o.CorruptReplica("seg-000", 0)
	if _, err := o.Get(context.Background(), "seg-000"); err != nil {
		t.Fatal(err)
	}
	if got := c.Stats().ReadRepairs; got != 1 {
		t.Fatalf("ReadRepairs = %d, want 1", got)
	}
}

// Run drives scrub and re-clone in a loop until cancelled, publishing
// durability gauges, and is safe to race with foreground mutation.
func TestRunLoopHealsAndStops(t *testing.T) {
	// Three replicas: seg-000 loses r1 *and* carries damage on r0, and
	// the clean r2 still sources both the scrub heal and the re-clone.
	o, verify := newStoreR(3, 3)
	reg := metrics.New()
	c := New(o, Config{Interval: time.Millisecond})
	c.SetVerify(verify)
	o.Services().Metrics = reg

	o.CorruptReplica("seg-000", 0)
	o.FailReplica(1)

	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		c.Run(ctx)
	}()

	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		objects, _ := o.UnderReplicated()
		if objects == 0 && c.Stats().ScrubRepairs >= 1 {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	cancel()
	wg.Wait()

	if objects, _ := o.UnderReplicated(); objects != 0 {
		t.Errorf("%d objects still at risk after Run", objects)
	}
	if c.Stats().ScrubRepairs == 0 {
		t.Error("Run never healed the corrupt blob")
	}
	if reg.Gauge("durability.at_risk.objects").Value() != 0 {
		t.Error("at-risk gauge not zeroed after heal")
	}
}

// Nil controllers are inert across the whole API surface.
func TestNilControllerSafe(t *testing.T) {
	var c *Controller
	if c.Enabled() {
		t.Fatal("nil controller enabled")
	}
	c.SetVerify(func(string, []byte) error { return nil })
	c.Run(context.Background())
	c.ReclonePass(context.Background())
	if sum := c.ScrubPass(context.Background()); sum != (ScrubSummary{}) {
		t.Fatalf("nil scrub = %+v", sum)
	}
	if got := c.Stats(); got != (Report{}) {
		t.Fatalf("nil stats = %+v", got)
	}
	if c.Ledger() != nil {
		t.Fatal("nil ledger non-empty")
	}
}
