package metrics

import (
	"sync"
	"time"
)

// SLOTracker turns a declared latency objective ("p99 under 40ms",
// stated as target latency + good fraction) into a burn rate the
// scheduler can read while load is still arriving. Each observation is
// classified good (latency <= target) or bad; the burn rate is the
// observed bad fraction divided by the error budget fraction:
//
//	burn = (bad / (good+bad)) / (1 - objective)
//
// Burn 1 means the window is consuming budget exactly as fast as the
// objective allows; burn 2 means at twice that rate; sustained burn > 1
// means the SLO will be missed if nothing changes — the standard
// multi-window burn-rate alerting quantity, computed over a slot ring
// like RateMeter so old observations age out. A nil *SLOTracker is a
// no-op, and sched treats burn shedding as disabled when its tracker
// is nil, keeping the nil-is-off discipline end to end.
type SLOTracker struct {
	mu     sync.Mutex
	target time.Duration
	budget float64  // error budget fraction, 1 - objective
	ring   slotRing // counts good in a, bad in b
}

// NewSLOTracker builds a tracker over a 30s window of 15 slots, for
// callers that hold one directly rather than through a registry — the
// scheduler's shedding input, for instance.
func NewSLOTracker(target time.Duration, objective float64) *SLOTracker {
	if objective <= 0 || objective >= 1 {
		objective = 0.99
	}
	if target <= 0 {
		target = time.Second
	}
	return &SLOTracker{target: target, budget: 1 - objective, ring: newSlotRing(30*time.Second, 15)}
}

// Target returns the declared latency objective.
func (s *SLOTracker) Target() time.Duration {
	if s == nil {
		return 0
	}
	return s.target
}

// Observe classifies one request latency, finished at instant t,
// against the target.
func (s *SLOTracker) Observe(t time.Time, latency time.Duration) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if latency <= s.target {
		s.ring.add(t, 1, 0)
	} else {
		s.ring.add(t, 0, 1)
	}
	s.mu.Unlock()
}

// BurnRate returns the budget burn rate of the window ending at t (0
// when the window is empty). Values >= 1 mean the error budget is being
// consumed at least as fast as the objective tolerates.
func (s *SLOTracker) BurnRate(t time.Time) float64 {
	good, bad := s.Window(t)
	if good+bad == 0 {
		return 0
	}
	frac := float64(bad) / float64(good+bad)
	return frac / s.budget
}

// Window returns the good/bad counts of the window ending at t.
func (s *SLOTracker) Window(t time.Time) (good, bad int64) {
	if s == nil {
		return 0, 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ring.sum(t)
}
