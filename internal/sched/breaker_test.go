package sched

import (
	"context"
	"testing"
	"time"

	"repro/internal/plan"
	"repro/internal/resilience"
	"repro/internal/sim"
	"repro/internal/wiring"
)

// differingDevice returns a device name placed by a but not by b, so a
// penalty against it steers admission between the two variants.
func differingDevice(t *testing.T, a, b *plan.Physical) string {
	t.Helper()
	other := map[string]bool{}
	for _, name := range b.PlacedDevices() {
		other[name] = true
	}
	for _, name := range a.PlacedDevices() {
		if !other[name] {
			return name
		}
	}
	t.Fatal("variants place work on identical device sets")
	return ""
}

// breakerScheduler returns a scheduler on a manual clock, wired to a
// policy holding only a breaker set with the given cooldown, tripping on
// the first failure.
func breakerScheduler(cooldown time.Duration) (*Scheduler, *resilience.BreakerSet, *sim.Clock) {
	br := resilience.NewBreakerSet(resilience.BreakerConfig{
		TripThreshold: 1, Cooldown: cooldown, HalfOpenProbes: 1,
	})
	clk := sim.NewManualClock(time.Unix(0, 0))
	return New(&wiring.Services{Resilience: &resilience.Policy{Breakers: br}, Clock: clk}), br, clk
}

func TestBreakerSteersAdmission(t *testing.T) {
	_, v0, v1 := twoNodeVariants(t)
	dev := differingDevice(t, v0[1], v1[1])

	s, br, clk := breakerScheduler(time.Hour)
	br.Failure(dev, clk.Now()) // trips: threshold is 1

	mixed := []*plan.Physical{v0[1], v1[1]}
	adm, err := s.Admit(context.Background(), mixed)
	if err != nil {
		t.Fatal(err)
	}
	if adm.Plan != v1[1] {
		t.Errorf("admission kept the circuit-broken variant %q", adm.Variant)
	}
	s.Release(adm)

	// With no healthy alternative the broken variant still serves —
	// breakers degrade admission to serve-slow, never to shedding.
	adm, err = s.Admit(context.Background(), []*plan.Physical{v0[1]})
	if err != nil {
		t.Fatalf("breaker shed the only variant: %v", err)
	}
	s.Release(adm)
}

func TestBreakerHalfOpenProbesViaAdmission(t *testing.T) {
	_, v0, v1 := twoNodeVariants(t)
	dev := differingDevice(t, v0[1], v1[1])

	s, br, clk := breakerScheduler(time.Second)
	br.Failure(dev, clk.Now())

	mixed := []*plan.Physical{v0[1], v1[1]}
	adm, err := s.Admit(context.Background(), mixed)
	if err != nil {
		t.Fatal(err)
	}
	if adm.Plan != v1[1] {
		t.Fatal("open breaker did not steer away")
	}
	s.Release(adm)

	// After the cooldown, admission's Allow stream half-opens the
	// breaker and hands the device a probe slot: it is no longer
	// rejected (DefaultBreakerPenalty), only scored as gray-failed
	// (DefaultDegradedPenalty) until the probe reports back — so it wins
	// again over an alternative whose links another admission holds,
	// which it could not while open.
	clk.Advance(2 * time.Second)
	hold, err := s.Admit(context.Background(), []*plan.Physical{v1[1]})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Release(hold)
	adm, err = s.Admit(context.Background(), mixed)
	if err != nil {
		t.Fatal(err)
	}
	if adm.Plan != v0[1] {
		t.Errorf("half-open probe did not readmit the top-ranked variant (chose %q)", adm.Variant)
	}
	if got := br.State(dev); got != resilience.HalfOpen {
		t.Errorf("breaker state = %v, want half-open", got)
	}
	// The engine reports the probe's outcome; success closes.
	br.Success(dev)
	if got := br.State(dev); got != resilience.Closed {
		t.Errorf("breaker state after probe success = %v, want closed", got)
	}
	s.Release(adm)
}

// A gray-failed device is one whose breaker is not closed: the scheduler
// asks the breaker where it scores. A half-open breaker that grants its
// probe slot rejects nothing, so what steers here is
// DefaultDegradedPenalty alone — and it is gone the moment the probe's
// success closes the breaker.
func TestDegradedPenaltySteersAdmission(t *testing.T) {
	_, v0, v1 := twoNodeVariants(t)
	dev := differingDevice(t, v0[1], v1[1])

	s, br, clk := breakerScheduler(time.Second)
	br.Failure(dev, clk.Now())
	clk.Advance(2 * time.Second) // past the cooldown: the next Allow half-opens

	mixed := []*plan.Physical{v0[1], v1[1]}
	adm, err := s.Admit(context.Background(), mixed)
	if err != nil {
		t.Fatal(err)
	}
	if got := br.State(dev); got != resilience.HalfOpen {
		t.Fatalf("breaker state = %v, want half-open", got)
	}
	if adm.Plan != v1[1] {
		t.Errorf("admission kept a gray-degraded device (chose %q)", adm.Variant)
	}
	s.Release(adm)

	// Healthy again: the top-ranked variant wins as before.
	br.Success(dev)
	adm, err = s.Admit(context.Background(), mixed)
	if err != nil {
		t.Fatal(err)
	}
	if adm.Plan != v0[1] {
		t.Errorf("healthy device still penalized (chose %q)", adm.Variant)
	}
	s.Release(adm)
}
