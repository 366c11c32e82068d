package resilience

import (
	"sync"
	"time"
)

// BreakerState is one of the three classic circuit-breaker states.
type BreakerState uint8

// Breaker states. Closed admits all work; Open rejects it; HalfOpen
// admits a bounded number of probes whose outcome decides between the
// other two.
const (
	Closed BreakerState = iota
	Open
	HalfOpen
)

// String names the state.
func (s BreakerState) String() string {
	switch s {
	case Closed:
		return "closed"
	case Open:
		return "open"
	case HalfOpen:
		return "half-open"
	}
	return "unknown"
}

// BreakerConfig tunes a BreakerSet.
type BreakerConfig struct {
	// TripThreshold is the number of consecutive failures that opens the
	// breaker. Values below 1 are clamped to 1.
	TripThreshold int
	// Cooldown is how long an open breaker rejects work before moving to
	// half-open. It also bounds how long a half-open probe slot stays
	// consumed without a verdict before it is replenished, so a probe
	// that is admitted but never reported back cannot wedge the breaker.
	Cooldown time.Duration
	// HalfOpenProbes is how many concurrent probes half-open admits.
	// Values below 1 are clamped to 1.
	HalfOpenProbes int
}

// BreakerSet is a family of per-key circuit breakers (one per device)
// sharing a config. The scheduler consults Allow before placing work on
// a device; the engines report Success/Failure after each placement.
// The set owns no clock: Allow and Failure take the instant from the
// caller. All methods are safe for concurrent use; a nil *BreakerSet
// admits everything.
type BreakerSet struct {
	cfg BreakerConfig
	// OnChange, if set, is called (outside the lock) whenever a key's
	// state changes — the dataflow engine uses it to mirror breaker
	// state into the metrics registry.
	OnChange func(key string, s BreakerState)

	mu       sync.Mutex
	breakers map[string]*breaker
}

type breaker struct {
	state    BreakerState
	failures int       // consecutive failures while closed
	until    time.Time // open: when to go half-open
	probes   int       // half-open: outstanding probe slots consumed
	probedAt time.Time // half-open: when the last probe slot was handed out
}

// NewBreakerSet returns a breaker family with the given config.
func NewBreakerSet(cfg BreakerConfig) *BreakerSet {
	if cfg.TripThreshold < 1 {
		cfg.TripThreshold = 1
	}
	if cfg.HalfOpenProbes < 1 {
		cfg.HalfOpenProbes = 1
	}
	return &BreakerSet{cfg: cfg, breakers: make(map[string]*breaker)}
}

// Allow reports whether work may be placed on key at instant now. In
// half-open it consumes a probe slot, so a true return from a half-open
// breaker obliges the caller to eventually report Success or Failure;
// slots held longer than Cooldown are replenished to tolerate callers
// that die in between.
func (b *BreakerSet) Allow(key string, now time.Time) bool {
	if b == nil {
		return true
	}
	b.mu.Lock()
	br := b.breakers[key]
	if br == nil {
		b.mu.Unlock()
		return true
	}
	var changed *BreakerState
	allowed := false
	switch br.state {
	case Closed:
		allowed = true
	case Open:
		if now.Before(br.until) {
			break
		}
		br.state = HalfOpen
		br.probes = 0
		s := HalfOpen
		changed = &s
		fallthrough
	case HalfOpen:
		if br.probes >= b.cfg.HalfOpenProbes && b.cfg.Cooldown > 0 && now.Sub(br.probedAt) >= b.cfg.Cooldown {
			// Probe slots were handed out but never reported back;
			// replenish so the device is not stuck half-open forever.
			br.probes = 0
		}
		if br.probes < b.cfg.HalfOpenProbes {
			br.probes++
			br.probedAt = now
			allowed = true
		}
	}
	cb := b.OnChange
	b.mu.Unlock()
	if changed != nil && cb != nil {
		cb(key, *changed)
	}
	return allowed
}

// Success reports a completed placement on key: a half-open breaker
// closes, a closed breaker clears its failure streak.
func (b *BreakerSet) Success(key string) {
	if b == nil {
		return
	}
	b.mu.Lock()
	br := b.breakers[key]
	if br == nil {
		b.mu.Unlock()
		return
	}
	var changed *BreakerState
	switch br.state {
	case Closed:
		br.failures = 0
	case HalfOpen:
		br.state = Closed
		br.failures = 0
		br.probes = 0
		s := Closed
		changed = &s
	}
	cb := b.OnChange
	b.mu.Unlock()
	if changed != nil && cb != nil {
		cb(key, *changed)
	}
}

// Reset force-closes key's breaker, clearing its failure streak without
// waiting out the cooldown. For callers that *know* the participant is
// healthy again — the repair controller closes a replica's breaker the
// moment re-replication has restored it with verified bytes, rather
// than leaving it condemned until a half-open probe happens by.
func (b *BreakerSet) Reset(key string) {
	if b == nil {
		return
	}
	b.mu.Lock()
	br := b.breakers[key]
	if br == nil || br.state == Closed {
		b.mu.Unlock()
		return
	}
	br.state = Closed
	br.failures = 0
	br.probes = 0
	cb := b.OnChange
	b.mu.Unlock()
	if cb != nil {
		cb(key, Closed)
	}
}

// Failure reports a failed placement on key at instant now: it extends
// the failure streak and trips the breaker at TripThreshold; a half-open
// probe failure re-opens immediately. It returns whether this failure
// opened the breaker, so the caller that tripped it can count the trip
// as its own.
func (b *BreakerSet) Failure(key string, now time.Time) (tripped bool) {
	if b == nil {
		return false
	}
	b.mu.Lock()
	br := b.breakers[key]
	if br == nil {
		br = &breaker{}
		b.breakers[key] = br
	}
	var changed *BreakerState
	switch br.state {
	case Closed:
		br.failures++
		if br.failures >= b.cfg.TripThreshold {
			br.state = Open
			br.until = now.Add(b.cfg.Cooldown)
			s := Open
			changed = &s
		}
	case HalfOpen:
		br.state = Open
		br.until = now.Add(b.cfg.Cooldown)
		br.probes = 0
		s := Open
		changed = &s
	case Open:
		// Already open; refresh the cooldown so a failing probe path
		// keeps the breaker open.
		br.until = now.Add(b.cfg.Cooldown)
	}
	cb := b.OnChange
	b.mu.Unlock()
	if changed != nil && cb != nil {
		cb(key, *changed)
	}
	return changed != nil
}

// State reports key's current state without consuming probe slots (an
// open breaker past its cooldown still reports Open until the next
// Allow transitions it).
func (b *BreakerSet) State(key string) BreakerState {
	if b == nil {
		return Closed
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	br := b.breakers[key]
	if br == nil {
		return Closed
	}
	return br.state
}
