package sched

import (
	"context"
	"testing"

	"repro/internal/plan"
)

// Admission reserves one worker slot per placed device per worker, and
// releases return them.
func TestWorkerSlotAccounting(t *testing.T) {
	_, v0, _ := twoNodeVariants(t)
	s := New(nil)
	s.SetWorkers(4)

	a1, err := s.Admit(context.Background(), v0)
	if err != nil {
		t.Fatal(err)
	}
	devs := a1.Plan.Devices()
	if len(devs) == 0 {
		t.Fatal("variant places no devices")
	}
	for _, d := range devs {
		if got := s.DeviceSlots(d.Name); got != 4 {
			t.Errorf("slots on %s = %d, want 4", d.Name, got)
		}
	}
	a2, err := s.Admit(context.Background(), []*plan.Physical{a1.Plan})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range devs {
		if got := s.DeviceSlots(d.Name); got != 8 {
			t.Errorf("slots on %s after second admit = %d, want 8", d.Name, got)
		}
	}
	s.Release(a1)
	for _, d := range devs {
		if got := s.DeviceSlots(d.Name); got != 4 {
			t.Errorf("slots on %s after release = %d, want 4", d.Name, got)
		}
	}
	s.Release(a2)
	for _, d := range devs {
		if got := s.DeviceSlots(d.Name); got != 0 {
			t.Errorf("slots on %s after drain = %d, want 0", d.Name, got)
		}
	}
}

// When a node's devices are oversubscribed past their replicated
// units, the worker-slot penalty steers the next admission to an idle
// node even though the loaded variant ranks better.
func TestWorkerSlotPenaltySteers(t *testing.T) {
	_, v0all, v1all := twoNodeVariants(t)
	// The top-ranked variants place work only on the shared storage
	// processor, where slot pressure cannot distinguish the nodes. Pin
	// the nic-offload variants: they place the filter on each node's own
	// NIC, which is what the worker-slot penalty steers between.
	pick := func(vs []*plan.Physical) *plan.Physical {
		for _, v := range vs {
			if v.Variant == "nic-offload" {
				return v
			}
		}
		t.Fatal("no nic-offload variant")
		return nil
	}
	v0 := []*plan.Physical{pick(v0all)}
	v1 := []*plan.Physical{pick(v1all)}
	s := New(nil)
	s.ContentionPenalty = 0 // isolate the worker-slot term
	s.WorkerSlotPenalty = 10
	s.SetWorkers(4)

	var held []*Admission
	for i := 0; i < 3; i++ {
		a, err := s.Admit(context.Background(), v0[:1])
		if err != nil {
			t.Fatal(err)
		}
		held = append(held, a)
	}
	mixed := []*plan.Physical{v0[0], v1[0]}
	a, err := s.Admit(context.Background(), mixed)
	if err != nil {
		t.Fatal(err)
	}
	if a.Plan != v1[0] {
		t.Errorf("scheduler kept oversubscribed node-0 variant")
	}
	for _, h := range held {
		s.Release(h)
	}
	s.Release(a)

	// With the penalty disabled the better-ranked variant wins again.
	s.WorkerSlotPenalty = 0
	for i := 0; i < 3; i++ {
		a, err := s.Admit(context.Background(), v0[:1])
		if err != nil {
			t.Fatal(err)
		}
		held = append(held, a)
	}
	a2, err := s.Admit(context.Background(), mixed)
	if err != nil {
		t.Fatal(err)
	}
	if a2.Plan != v0[0] {
		t.Errorf("disabled penalty still steered away from top rank")
	}
	for _, h := range held[3:] {
		s.Release(h)
	}
	s.Release(a2)
}

// Workers below one reserve a single slot: serial admission is the
// baseline, not zero.
func TestWorkerSlotMinimumOne(t *testing.T) {
	_, v0, _ := twoNodeVariants(t)
	s := New(nil)
	s.SetWorkers(0)
	a, err := s.Admit(context.Background(), v0)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range a.Plan.Devices() {
		if got := s.DeviceSlots(d.Name); got != 1 {
			t.Errorf("slots on %s = %d, want 1", d.Name, got)
		}
	}
	s.Release(a)
}

// DeviceSlots reports the worker slots active plans hold on a device.
func (s *Scheduler) DeviceSlots(device string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.deviceSlots[device]
}
