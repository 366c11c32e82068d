package storage

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/resilience"
	"repro/internal/sim"
)

// Self-healing storage: integrity verification, read-repair write-back,
// sticky corruption, replica loss, and the metering invariants that keep
// repair honest — queries are charged only for the clean payloads they
// consume, and repair traffic lands on its own counters.

// verifyAgainst returns a Verify func that accepts exactly want.
func verifyAgainst(want []byte) func(string, []byte) error {
	return func(_ string, data []byte) error {
		if !bytes.Equal(data, want) {
			return errors.New("payload mismatch")
		}
		return nil
	}
}

// A sequential read that hits a corrupt primary must fall back to the
// clean replica, return its bytes, charge the query for the clean
// payload exactly once, and write the clean bytes back over the damaged
// replica.
func TestReadRepairHealsCorruptReplica(t *testing.T) {
	o := NewObjectStore(nil)
	o.SetReplicas(2)
	payload := []byte("self-healing payload bytes")
	o.Put("k", payload)
	o.Verify = verifyAgainst(payload)
	o.WriteBack = true

	if !o.CorruptReplica("k", 0) {
		t.Fatal("CorruptReplica did not damage replica 0")
	}
	if raw, _ := o.ReadReplicaRaw(context.Background(), "k", 0); bytes.Equal(raw, payload) {
		t.Fatal("replica 0 still clean after CorruptReplica")
	}

	opsBefore, bytesBefore := o.Meter.Ops(), o.Meter.Bytes()
	got, err := o.Get(context.Background(), "k")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("read returned %q, want the clean payload", got)
	}

	// The query paid for the clean payload once; the discarded corrupt
	// read landed on the corrupt counters.
	if b := o.Meter.Bytes() - bytesBefore; b != sim.Bytes(len(payload)) {
		t.Errorf("main meter bytes = %d, want %d (clean payload once)", b, len(payload))
	}
	if ops := o.Meter.Ops() - opsBefore; ops != 1 {
		t.Errorf("main meter ops = %d, want 1", ops)
	}
	rep := o.Totals()
	if rep.CorruptReads != 1 {
		t.Errorf("CorruptReads = %d, want 1", rep.CorruptReads)
	}
	if rep.CorruptBytes != sim.Bytes(len(payload)) {
		t.Errorf("CorruptBytes = %d, want %d", rep.CorruptBytes, len(payload))
	}
	if rep.ReadRepairs != 1 || rep.RepairBytes != sim.Bytes(len(payload)) {
		t.Errorf("write-backs = %d/%d bytes, want 1/%d",
			rep.ReadRepairs, rep.RepairBytes, len(payload))
	}

	// The damaged replica is healed in place: a raw read serves clean
	// bytes and a second Get does no further repair work.
	raw, err := o.ReadReplicaRaw(context.Background(), "k", 0)
	if err != nil || !bytes.Equal(raw, payload) {
		t.Fatalf("replica 0 not healed: %q err=%v", raw, err)
	}
	if _, err := o.Get(context.Background(), "k"); err != nil {
		t.Fatal(err)
	}
	if rep := o.Totals(); rep.ReadRepairs != 1 || rep.CorruptReads != 1 {
		t.Errorf("second read repeated repair work: %+v", rep)
	}
}

// With WriteBack off, verification still routes around damage — the
// clean replica answers — but the damaged blob stays damaged: detect and
// route-around without heal.
func TestVerifyWithoutWriteBackLeavesDamage(t *testing.T) {
	o := NewObjectStore(nil)
	o.SetReplicas(2)
	payload := []byte("detected but not healed")
	o.Put("k", payload)
	o.Verify = verifyAgainst(payload)

	o.CorruptReplica("k", 0)
	got, err := o.Get(context.Background(), "k")
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("read = %q err=%v", got, err)
	}
	if rep := o.Totals(); rep.ReadRepairs != 0 {
		t.Errorf("ReadRepairs = %d with WriteBack off", rep.ReadRepairs)
	}
	raw, _ := o.ReadReplicaRaw(context.Background(), "k", 0)
	if bytes.Equal(raw, payload) {
		t.Error("replica 0 healed despite WriteBack off")
	}
}

// Regression: a hedge that wins the race with corrupt bytes must not
// become the answer. The corrupt finisher is rejected, the slower clean
// primary serves the query, and the corrupt replica is repaired. The
// byte conservation holds: main meter carries the clean payload once,
// the discarded read lands on the corrupt counters, nothing on the
// hedge counters.
func TestHedgeCorruptWinnerRejected(t *testing.T) {
	o := NewObjectStore(nil)
	o.SetReplicas(2)
	o.BaseLatency = time.Millisecond
	payload := []byte("hedge race corrupt winner payload")
	o.Put("k", payload)
	o.Verify = verifyAgainst(payload)
	o.WriteBack = true

	// Replica 1 (the hedge target) is damaged; replica 0 is clean but
	// slow enough that the hedge fires and finishes first.
	o.CorruptReplica("k", 1)
	inj := faults.New(0x51C4)
	inj.Arm(faults.Point{Kind: faults.DegradedDevice, Target: "store/r0",
		Prob: 1, Severity: 20})
	o.svc.Faults = inj
	pol := resilience.NewPolicy()
	pol.Speculate = false
	o.svc.Resilience = pol

	opsBefore, bytesBefore := o.Meter.Ops(), o.Meter.Bytes()
	base := runtime.NumGoroutine()
	got, err := o.Get(context.Background(), "k")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("hedged read returned corrupt bytes %q", got)
	}
	h := o.Totals()
	if h.HedgedReads != 1 {
		t.Fatalf("hedge stats = %+v, want exactly one hedge launched", h)
	}
	if h.HedgeWins != 0 {
		t.Errorf("corrupt hedge recorded as a win: %+v", h)
	}
	if h.HedgeBytes != 0 {
		t.Errorf("hedge bytes = %d, want 0 (corrupt payload must land on corrupt counters)", h.HedgeBytes)
	}
	if b := o.Meter.Bytes() - bytesBefore; b != sim.Bytes(len(payload)) {
		t.Errorf("main meter bytes = %d, want %d (clean primary once)", b, len(payload))
	}
	if ops := o.Meter.Ops() - opsBefore; ops != 1 {
		t.Errorf("main meter ops = %d, want the primary's single attempt", ops)
	}
	rep := o.Totals()
	if rep.CorruptReads != 1 || rep.CorruptBytes != sim.Bytes(len(payload)) {
		t.Errorf("corrupt accounting = %d reads / %d bytes, want 1 / %d",
			rep.CorruptReads, rep.CorruptBytes, len(payload))
	}
	if rep.ReadRepairs != 1 {
		t.Errorf("ReadRepairs = %d, want 1 (corrupt hedge target repaired)", rep.ReadRepairs)
	}
	raw, err := o.ReadReplicaRaw(context.Background(), "k", 1)
	if err != nil || !bytes.Equal(raw, payload) {
		t.Fatalf("hedge target not healed: %q err=%v", raw, err)
	}
	waitGoroutines(t, base)
}

// A corrupt read strikes the replica in the health tracker, so ranking
// demotes it to last place until a repair forgives the strike.
func TestCorruptReadStrikesHealthRanking(t *testing.T) {
	o := NewObjectStore(nil)
	o.SetReplicas(2)
	payload := []byte("strike ranking payload")
	o.Put("k", payload)
	o.Verify = verifyAgainst(payload)
	o.WriteBack = true
	pol := resilience.NewPolicy()
	pol.Hedge = false
	o.svc.Resilience = pol

	o.CorruptReplica("k", 0)
	if _, err := o.Get(context.Background(), "k"); err != nil {
		t.Fatal(err)
	}
	// The strike was recorded and then forgiven by the write-back heal.
	if pol.Health.CorruptStrikes("store/r0") != 0 {
		t.Error("heal did not forgive the integrity strike")
	}

	// Without write-back the strike persists and demotes the replica.
	o2 := NewObjectStore(nil)
	o2.SetReplicas(2)
	o2.Put("k", payload)
	o2.Verify = verifyAgainst(payload)
	pol2 := resilience.NewPolicy()
	pol2.Hedge = false
	o2.svc.Resilience = pol2
	o2.CorruptReplica("k", 0)
	if _, err := o2.Get(context.Background(), "k"); err != nil {
		t.Fatal(err)
	}
	if pol2.Health.CorruptStrikes("store/r0") == 0 {
		t.Fatal("corrupt read left no integrity strike")
	}
	order := pol2.Health.Rank([]string{"store/r0", "store/r1"})
	if order[len(order)-1] != "store/r0" {
		t.Errorf("struck replica not ranked last: %v", order)
	}
}

// StickyCorrupt through the injector: the first matching read damages
// the stored blob and every later read serves the same damaged bytes —
// the fault must not flip the byte back. A fresh Put discards the
// sticky record so the new object can be damaged again.
func TestStickyCorruptIsSticky(t *testing.T) {
	o := NewObjectStore(nil)
	payload := []byte("sticky corruption target bytes")
	o.Put("k", payload)
	inj := faults.New(0x57)
	inj.Arm(faults.Point{Kind: faults.StickyCorrupt, Target: "store/r0", Prob: 1})
	o.svc.Faults = inj

	first, err := o.ReadReplicaRaw(context.Background(), "k", 0)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(first, payload) {
		t.Fatal("armed StickyCorrupt did not damage the blob")
	}
	second, err := o.ReadReplicaRaw(context.Background(), "k", 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Fatal("second read differs: the fault re-flipped the damaged byte")
	}

	// Repair clears the sticky record; the still-armed point damages the
	// repaired blob on the next read (fresh incident, not a replay).
	if err := o.RepairReplica(context.Background(), "k", 0, payload); err != nil {
		t.Fatal(err)
	}
	again, err := o.ReadReplicaRaw(context.Background(), "k", 0)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(again, payload) {
		t.Fatal("armed point stopped firing after repair")
	}

	// A fresh Put replaces the object; damage applies anew to it.
	fresh := []byte("recreated object bytes --------")
	o.Put("k", fresh)
	got, err := o.ReadReplicaRaw(context.Background(), "k", 0)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, fresh) {
		t.Fatal("sticky record survived Put and suppressed damage")
	}
}

// StickyCorrupt is deterministic under the injector seed: two stores
// armed identically damage the same blobs.
func TestStickyCorruptDeterministicUnderSeed(t *testing.T) {
	run := func() []string {
		o := NewObjectStore(nil)
		o.SetReplicas(2)
		keys := []string{"a", "b", "c", "d", "e", "f"}
		for _, k := range keys {
			o.Put(k, []byte("deterministic payload for "+k))
		}
		inj := faults.New(0xD37)
		inj.Arm(faults.Point{Kind: faults.StickyCorrupt, Prob: 0.5})
		o.svc.Faults = inj
		var damaged []string
		for _, k := range keys {
			for r := 0; r < 2; r++ {
				data, err := o.ReadReplicaRaw(context.Background(), k, r)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(data, []byte("deterministic payload for "+k)) {
					damaged = append(damaged, k+"/"+itoa(r))
				}
			}
		}
		return damaged
	}
	a, b := run(), run()
	if len(a) == 0 {
		t.Fatal("seeded 50% StickyCorrupt never fired over 12 reads")
	}
	if len(a) != len(b) {
		t.Fatalf("runs damaged %v vs %v", a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs damaged %v vs %v", a, b)
		}
	}
}

func itoa(n int) string { return string(rune('0' + n)) }

// FailReplica loses every blob of one replica; reads fall back, the
// exposure is reported, and RepairReplica restores the slot.
func TestFailReplicaFallbackAndRestore(t *testing.T) {
	o := NewObjectStore(nil)
	o.SetReplicas(2)
	payload := []byte("replica loss payload")
	o.Put("k", payload)

	if lost := o.FailReplica(0); lost != 1 {
		t.Fatalf("FailReplica lost %d blobs, want 1", lost)
	}
	objects, slots := o.UnderReplicated()
	if objects != 1 || slots[0] != 1 {
		t.Fatalf("UnderReplicated = %d objects, slots %v", objects, slots)
	}
	if _, err := o.ReadReplicaRaw(context.Background(), "k", 0); err == nil {
		t.Fatal("raw read of a lost slot succeeded")
	} else if _, ok := err.(*ReplicaLostError); !ok {
		t.Fatalf("lost slot error = %T, want *ReplicaLostError", err)
	}

	got, err := o.Get(context.Background(), "k")
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("read after replica loss = %q err=%v", got, err)
	}
	if o.Totals().ReplicaFallbacks == 0 {
		t.Error("read past the lost replica recorded no fallback")
	}

	if err := o.RepairReplica(context.Background(), "k", 0, payload); err != nil {
		t.Fatal(err)
	}
	if objects, _ := o.UnderReplicated(); objects != 0 {
		t.Errorf("still %d under-replicated objects after restore", objects)
	}
	raw, err := o.ReadReplicaRaw(context.Background(), "k", 0)
	if err != nil || !bytes.Equal(raw, payload) {
		t.Fatalf("restored slot serves %q err=%v", raw, err)
	}
}

// Concurrent reads of the same damaged blob must repair it exactly
// once: the compare-and-write under the store lock dedups writers.
func TestConcurrentReadRepairExactlyOnce(t *testing.T) {
	o := NewObjectStore(nil)
	o.SetReplicas(2)
	payload := make([]byte, 1024)
	for i := range payload {
		payload[i] = byte(i)
	}
	o.Put("k", payload)
	o.Verify = verifyAgainst(payload)
	o.WriteBack = true
	o.CorruptReplica("k", 0)

	const readers = 8
	done := make(chan error, readers)
	for i := 0; i < readers; i++ {
		go func() {
			got, err := o.Get(context.Background(), "k")
			if err == nil && !bytes.Equal(got, payload) {
				err = errors.New("corrupt bytes returned")
			}
			done <- err
		}()
	}
	for i := 0; i < readers; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if rep := o.Totals(); rep.ReadRepairs != 1 {
		t.Errorf("ReadRepairs = %d, want exactly 1 for one damaged blob", rep.ReadRepairs)
	}
}

// Scrub reads are metered on the scrub counters, never the main Meter.
func TestScrubReadsBypassMainMeter(t *testing.T) {
	o := NewObjectStore(nil)
	payload := []byte("scrub metering payload")
	o.Put("k", payload)
	bytesBefore := o.Meter.Bytes()
	for i := 0; i < 3; i++ {
		if _, err := o.ReadReplicaRaw(context.Background(), "k", 0); err != nil {
			t.Fatal(err)
		}
	}
	if b := o.Meter.Bytes() - bytesBefore; b != 0 {
		t.Errorf("scrub reads charged %d bytes to the main meter", b)
	}
	rep := o.Totals()
	if rep.ScrubReads != 3 || rep.ScrubBytes != sim.Bytes(3*len(payload)) {
		t.Errorf("scrub accounting = %d reads / %d bytes, want 3 / %d",
			rep.ScrubReads, rep.ScrubBytes, 3*len(payload))
	}
}

// The repair-contention model stretches a foreground read by
// RepairContention x BaseLatency for each repair I/O in flight. The slot
// is held directly and the assertion is the configured floor, which a
// sleep can only exceed: no measured baseline, nothing a busy box can
// tip.
func TestRepairContentionStretchesForeground(t *testing.T) {
	o := NewObjectStore(nil)
	o.BaseLatency = 2 * time.Millisecond
	o.RepairContention = 4
	o.Put("k", []byte("contention payload"))

	o.repairLoad.Add(1) // what ReadReplicaRaw and RepairReplica hold while they run
	start := time.Now()
	if _, err := o.Get(context.Background(), "k"); err != nil {
		t.Fatal(err)
	}
	loaded := time.Since(start)
	o.repairLoad.Add(-1)
	if floor := time.Duration(float64(o.BaseLatency) * (1 + o.RepairContention)); loaded < floor {
		t.Errorf("foreground read beside one repair I/O took %v, want >= %v", loaded, floor)
	}
}

// The disabled repair path adds zero allocations to a single-replica
// read — the CI-gated invariant that nil Verify / WriteBack off / no
// controller cost nothing.
func BenchmarkRepairDisabled(b *testing.B) {
	o := NewObjectStore(nil)
	payload := make([]byte, 4096)
	o.Put("k", payload)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := o.GetNoCopy(ctx, "k"); err != nil {
			b.Fatal(err)
		}
	}
}
