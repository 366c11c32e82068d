package resilience

import "sync"

// Budget is the global retry budget: a token bucket refilled by
// observed primary work. Every ObserveOp adds Ratio tokens (capped at
// Burst); every hedge or speculative re-execution (Race), every fault
// retry (Retry: a store's transient re-read and a scan's corrupt re-read
// alike) and every query re-run of the engine's recovery loop spends one
// token via TryAcquire. With Ratio at 0.1 the
// recovery machinery can add at most ~10% extra work on top of the
// primary stream, so an injected fault storm degrades to
// shed-or-serve-slow instead of amplifying itself. All methods are safe for concurrent use; a nil
// *Budget grants everything.
type Budget struct {
	mu        sync.Mutex
	ratio     float64
	burst     float64
	tokens    float64
	exhausted int64
}

// NewBudget returns a budget earning ratio tokens per observed op,
// holding at most burst. The bucket starts full so startup retries are
// not starved before any primary work completes.
func NewBudget(ratio float64, burst float64) *Budget {
	if ratio < 0 {
		ratio = 0
	}
	if burst < 1 {
		burst = 1
	}
	return &Budget{ratio: ratio, burst: burst, tokens: burst}
}

// ObserveOp credits the budget for one completed primary operation.
func (b *Budget) ObserveOp() {
	if b == nil {
		return
	}
	b.mu.Lock()
	b.tokens += b.ratio
	if b.tokens > b.burst {
		b.tokens = b.burst
	}
	b.mu.Unlock()
}

// TryAcquire spends one token if available. A false return means the
// budget is exhausted and the caller must skip its retry/hedge.
func (b *Budget) TryAcquire() bool {
	if b == nil {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.tokens >= 1 {
		b.tokens--
		return true
	}
	b.exhausted++
	return false
}

// Exhausted reports how many acquisitions have been denied so far.
func (b *Budget) Exhausted() int64 {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.exhausted
}

// Tokens reports the current token count, for tests and metrics.
func (b *Budget) Tokens() float64 {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.tokens
}
