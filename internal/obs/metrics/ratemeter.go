package metrics

import (
	"sync"
	"time"
)

// RateMeter measures a rolling-window rate (events or bytes per second)
// over a ring of time slots. Mark attributes n to the slot its instant
// falls in; Rate sums the slots still inside the window and divides
// by the covered duration, so the reading converges on the true rate as
// the window fills and decays within one window of a burst stopping.
// Mutex-guarded: marks are per-scan / per-query, not per-batch, so a
// cheap lock beats the complexity of slot CAS dances. A nil *RateMeter
// is a no-op.
type RateMeter struct {
	mu    sync.Mutex
	ring  slotRing  // counts n in a; b stays 0
	start time.Time // first mark; bounds the divisor for young meters
	total int64
}

// slotRing is the ring of time slots RateMeter and SLOTracker count
// into: each slot holds two counts for one slotDur-long epoch, and a
// slot whose epoch has left the window is reset on reuse and skipped on
// read. Its owner's lock guards it.
type slotRing struct {
	slotDur time.Duration
	slots   []ringSlot
}

type ringSlot struct {
	epoch int64 // absolute slot number; stale slots are skipped on read
	a, b  int64
}

func newSlotRing(window time.Duration, slots int) slotRing {
	return slotRing{slotDur: window / time.Duration(slots), slots: make([]ringSlot, slots)}
}

// add counts a and b into the slot instant t falls in.
func (r *slotRing) add(t time.Time, a, b int64) {
	epoch := t.UnixNano() / int64(r.slotDur)
	s := &r.slots[epoch%int64(len(r.slots))]
	if s.epoch != epoch {
		*s = ringSlot{epoch: epoch}
	}
	s.a += a
	s.b += b
}

// sum totals the slots of the window ending at t.
func (r *slotRing) sum(t time.Time) (a, b int64) {
	epoch := t.UnixNano() / int64(r.slotDur)
	oldest := epoch - int64(len(r.slots)) + 1
	for _, s := range r.slots {
		if s.epoch >= oldest && s.epoch <= epoch {
			a += s.a
			b += s.b
		}
	}
	return a, b
}

// Mark records n events (or bytes) at instant t.
func (m *RateMeter) Mark(t time.Time, n int64) {
	if m == nil {
		return
	}
	m.mu.Lock()
	if m.start.IsZero() {
		m.start = t
	}
	m.ring.add(t, n, 0)
	m.total += n
	m.mu.Unlock()
}

// Rate returns the per-second rate over the window ending at t. A meter
// younger than the window divides by its age instead, so early readings
// aren't diluted by slots that never existed.
func (m *RateMeter) Rate(t time.Time) float64 {
	if m == nil {
		return 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.start.IsZero() {
		return 0
	}
	n, _ := m.ring.sum(t)
	window := m.ring.slotDur * time.Duration(len(m.ring.slots))
	if age := t.Sub(m.start) + m.ring.slotDur; age < window {
		window = age
	}
	if window <= 0 {
		return 0
	}
	return float64(n) / window.Seconds()
}

// Total returns every mark ever recorded (not windowed).
func (m *RateMeter) Total() int64 {
	if m == nil {
		return 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.total
}
