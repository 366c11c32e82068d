package faults

import (
	"errors"
	"fmt"
	"testing"
	"time"
)

// driveInjector performs a fixed mixed sequence of Fire and Slowdown
// calls and returns the rendered schedule. Slowdown checks on the
// gray-failure kinds ride along so their determinism is covered by the
// same seed tests as the error kinds.
func driveInjector(in *Injector) string {
	for i := 0; i < 500; i++ {
		in.Fire(TransientRead, fmt.Sprintf("lineitem/seg-%06d", i%7))
		if i%3 == 0 {
			in.Fire(CorruptBlob, fmt.Sprintf("lineitem/seg-%06d", i%5))
		}
		if i%11 == 0 {
			in.Fire(DeviceOffline, "storage.nic")
		}
		in.Fire(LinkFlap, "net.storage-c0")
		in.Slowdown(DegradedDevice, fmt.Sprintf("store/r0/seg-%06d", i%7), time.Millisecond)
		if i%2 == 0 {
			in.Slowdown(JitterLink, "net.storage-c0", 100*time.Microsecond)
		}
	}
	return in.Schedule()
}

func armDefault(in *Injector) {
	in.Arm(Point{Kind: TransientRead, Prob: 0.1})
	in.Arm(Point{Kind: CorruptBlob, Target: "lineitem/", Prob: 0.05})
	in.Arm(Point{Kind: DeviceOffline, Target: "storage.nic", Prob: 0.5, Budget: 2})
	in.Arm(Point{Kind: LinkFlap, Prob: 0.02})
	in.Arm(Point{Kind: DegradedDevice, Target: "store/r0", Prob: 0.3, Severity: 8})
	in.Arm(Point{Kind: JitterLink, Prob: 0.1, Severity: 4})
}

func TestSameSeedByteIdenticalSchedule(t *testing.T) {
	a, b := New(0xE19), New(0xE19)
	armDefault(a)
	armDefault(b)
	sa, sb := driveInjector(a), driveInjector(b)
	if sa != sb {
		t.Fatalf("same seed produced different schedules:\n--- a ---\n%s--- b ---\n%s", sa, sb)
	}
	if sa == "" {
		t.Fatal("no faults fired at these probabilities over 500 rounds")
	}

	// Reset rewinds to the same schedule.
	a.Reset()
	if s := driveInjector(a); s != sa {
		t.Fatalf("schedule after Reset diverged:\n%s\nvs\n%s", s, sa)
	}

	// A different seed gives a different schedule.
	c := New(0xBEEF)
	armDefault(c)
	if driveInjector(c) == sa {
		t.Fatal("different seeds produced identical schedules")
	}
}

func TestUnmatchedChecksDoNotPerturbSchedule(t *testing.T) {
	a, b := New(7), New(7)
	armDefault(a)
	armDefault(b)
	// b sees extra checks of kinds/targets no point matches; they must
	// not consume randomness.
	for i := 0; i < 100; i++ {
		b.Fire(StickyCorrupt, "anything")
		b.Fire(ObjectMissing, "orders/seg-000001")
		b.Fire(CorruptBlob, "orders/seg-000002") // target mismatch
	}
	if sa, sb := driveInjector(a), driveInjector(b); sa != sb {
		t.Fatalf("unmatched checks perturbed the schedule:\n%s\nvs\n%s", sa, sb)
	}
}

func TestCrossPointInterleavingDoesNotPerturbSchedule(t *testing.T) {
	a, b := New(7), New(7)
	armDefault(a)
	armDefault(b)
	// a interleaves the checks of all points (as concurrent pipeline
	// stages and the scan would); b performs the same per-point check
	// sequences batched point by point. Per-point RNG streams make the
	// two orderings produce the same schedule.
	sa := driveInjector(a)
	for i := 0; i < 500; i++ {
		b.Fire(TransientRead, fmt.Sprintf("lineitem/seg-%06d", i%7))
	}
	for i := 0; i < 500; i += 3 {
		b.Fire(CorruptBlob, fmt.Sprintf("lineitem/seg-%06d", i%5))
	}
	for i := 0; i < 500; i += 11 {
		b.Fire(DeviceOffline, "storage.nic")
	}
	for i := 0; i < 500; i++ {
		b.Fire(LinkFlap, "net.storage-c0")
	}
	for i := 0; i < 500; i++ {
		b.Slowdown(DegradedDevice, fmt.Sprintf("store/r0/seg-%06d", i%7), time.Millisecond)
	}
	for i := 0; i < 500; i += 2 {
		b.Slowdown(JitterLink, "net.storage-c0", 100*time.Microsecond)
	}
	if sb := b.Schedule(); sa != sb {
		t.Fatalf("check interleaving across points perturbed the schedule:\n%s\nvs\n%s", sa, sb)
	}
}

func TestBudgetAndTarget(t *testing.T) {
	in := New(1)
	in.Arm(Point{Kind: DeviceOffline, Target: "storage.nic", Prob: 1, Budget: 2})
	if in.Fire(DeviceOffline, "c0.nic") {
		t.Fatal("fired on a non-matching target")
	}
	if !in.Fire(DeviceOffline, "storage.nic") || !in.Fire(DeviceOffline, "storage.nic") {
		t.Fatal("armed point did not fire within budget")
	}
	if in.Fire(DeviceOffline, "storage.nic") {
		t.Fatal("fired past its budget")
	}
	if got := in.Fires(); got != 2 {
		t.Fatalf("Fires() = %d, want 2", got)
	}
}

func TestSlowdownMagnitudes(t *testing.T) {
	in := New(1)
	in.Arm(Point{Kind: DegradedDevice, Target: "store/r0", Prob: 1, Severity: 8})
	in.Arm(Point{Kind: JitterLink, Target: "net.med", Prob: 1, Severity: 4, Budget: 1})
	// DegradedDevice stretches base to Severity x base: extra = 7 x base.
	if got := in.Slowdown(DegradedDevice, "store/r0/lineitem", time.Millisecond); got != 7*time.Millisecond {
		t.Fatalf("DegradedDevice extra = %v, want 7ms", got)
	}
	// Non-matching target adds nothing.
	if got := in.Slowdown(DegradedDevice, "store/r1/lineitem", time.Millisecond); got != 0 {
		t.Fatalf("non-matching target slowed by %v", got)
	}
	// JitterLink adds Severity x base on top.
	if got := in.Slowdown(JitterLink, "net.med", 100*time.Microsecond); got != 400*time.Microsecond {
		t.Fatalf("JitterLink extra = %v, want 400us", got)
	}
	// Budget exhausted: no more jitter.
	if got := in.Slowdown(JitterLink, "net.med", 100*time.Microsecond); got != 0 {
		t.Fatalf("jitter past budget = %v, want 0", got)
	}
	// Severity <= 1 DegradedDevice is a no-op even when it fires.
	in2 := New(2)
	in2.Arm(Point{Kind: DegradedDevice, Prob: 1, Severity: 1})
	if got := in2.Slowdown(DegradedDevice, "x", time.Second); got != 0 {
		t.Fatalf("severity-1 degradation = %v, want 0", got)
	}
	// Slowdown fires land in the schedule like any other event.
	if in.Fires() != 2 {
		t.Fatalf("Fires() = %d, want 2", in.Fires())
	}
	// Nil injector and zero base are safe no-ops.
	var nilIn *Injector
	if nilIn.Slowdown(DegradedDevice, "x", time.Second) != 0 {
		t.Fatal("nil injector slowed down")
	}
	if in.Slowdown(DegradedDevice, "store/r0/x", 0) != 0 {
		t.Fatal("zero base slowed down")
	}
}

func TestTransientClassification(t *testing.T) {
	cases := []struct {
		kind Kind
		want bool
	}{
		{TransientRead, true}, {ObjectMissing, true}, {LinkFlap, true},
		{CorruptBlob, false}, {DeviceOffline, false},
		{DegradedDevice, true}, {JitterLink, true}, {StickyCorrupt, false},
	}
	for _, c := range cases {
		err := fmt.Errorf("wrapped: %w", &FaultError{Kind: c.kind, Target: "x"})
		if got := IsTransient(err); got != c.want {
			t.Errorf("IsTransient(%s) = %v, want %v", c.kind, got, c.want)
		}
	}
	if IsTransient(errors.New("plain")) {
		t.Error("plain error classified transient")
	}
	if IsTransient(nil) {
		t.Error("nil classified transient")
	}
}
