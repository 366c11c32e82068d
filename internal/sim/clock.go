package sim

import (
	"context"
	"sync"
	"time"
)

// Clock is the one source of host time for the engine's control layers
// (admission, hedging, backoff, repair pacing, watchdogs, latencies),
// read through wiring.Services; virtual time (VTime) is what the fabric
// charges. A nil *Clock is the wall clock. NewManualClock builds the one
// fake: its time moves only on Advance or Sleep, and an After channel
// fires once the clock passes the channel's deadline.
type Clock struct {
	mu      sync.Mutex
	now     time.Time
	waiters []waiter
}

// waiter is one pending After on a manual clock.
type waiter struct {
	at time.Time
	ch chan time.Time
}

// NewManualClock returns a clock stopped at t0. Start it at time.Now()
// when its instants are compared with wall deadlines.
func NewManualClock(t0 time.Time) *Clock { return &Clock{now: t0} }

// Now returns the current instant.
func (c *Clock) Now() time.Time {
	if c == nil {
		return time.Now()
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Since returns the time elapsed since t.
func (c *Clock) Since(t time.Time) time.Duration { return c.Now().Sub(t) }

// Sleep waits for d, or until ctx (which may be nil) is done, in which
// case it returns ctx's error. A manual clock does not wait: it advances
// by d. d <= 0 returns at once, before touching a timer.
func (c *Clock) Sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return nil
	}
	var done <-chan struct{} // nil blocks forever: no context, no cancel
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return err
		}
		done = ctx.Done()
	}
	if c != nil {
		c.Advance(d)
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-done:
		return ctx.Err()
	}
}

// After returns a channel that receives the clock's instant once d has
// passed.
func (c *Clock) After(d time.Duration) <-chan time.Time {
	if c == nil {
		return time.After(d)
	}
	ch := make(chan time.Time, 1)
	c.mu.Lock()
	c.waiters = append(c.waiters, waiter{at: c.now.Add(d), ch: ch})
	c.mu.Unlock()
	c.Advance(0) // fires at once when d <= 0
	return ch
}

// Advance moves a manual clock forward by d and fires every After whose
// deadline it reaches.
func (c *Clock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
	kept := c.waiters[:0]
	for _, w := range c.waiters {
		if w.at.After(c.now) {
			kept = append(kept, w)
		} else {
			w.ch <- c.now
		}
	}
	clear(c.waiters[len(kept):])
	c.waiters = kept
}
