// Package resilience implements the gray-failure defense layer shared by
// storage, sched, flow and the engines: EWMA health tracking, hedged-read
// and speculative-execution policy knobs, per-device circuit breakers with
// half-open probing, and a global retry budget.
//
// Gray failures are devices that are slow but not dead — a degraded
// storage processor, a jittery link. Crash recovery (replica fallback,
// plan failover) never triggers for them because every operation
// eventually succeeds; meanwhile the tail latency of the whole dataflow
// collapses onto the slowest participant. The defenses here follow the
// tail-at-scale playbook: measure per-participant latency (Tracker),
// hedge or speculate past stragglers after a deviation-scaled delay
// (Policy), stop sending work to participants that consistently fail
// (BreakerSet), and cap the total extra work recovery may generate
// (Budget) so fault storms degrade to shed-or-serve-slow instead of
// retry amplification.
package resilience

import "time"

// Policy bundles the resilience machinery and its tuning knobs. A nil
// *Policy disables everything, which keeps the zero-configuration paths
// of storage and the engines byte-identical to the pre-resilience
// behavior.
type Policy struct {
	// Health tracks per-participant latency (EWMA + mean absolute
	// deviation). Keys are caller-chosen: replica names, device names,
	// stage/device pairs.
	Health *Tracker
	// Breakers holds the per-device circuit breakers consulted by the
	// scheduler's admission path and tripped by the engines' failure
	// handling.
	Breakers *BreakerSet
	// Budget is the global retry budget consumed by hedges, speculative
	// re-executions and fault retries. Nil means unlimited.
	Budget *Budget

	// Hedge enables hedged replica reads in the object store: a read
	// hedges after ewma + HedgeK*deviation of its replica's latency
	// history.
	Hedge bool
	// HedgeMinDelay floors the hedge trigger so cold health stats or a
	// very tight history cannot hedge instantly and double every read.
	HedgeMinDelay time.Duration

	// Speculate enables speculative morsel re-execution in parallel
	// scans: once SpecMinSamples morsels have completed, one running
	// past SpecMultiple x their EWMA is re-issued.
	Speculate bool
}

// The trigger scales of hedging and speculation.
const (
	HedgeK         = 3.0 // deviations above a replica's EWMA before a read hedges
	SpecMultiple   = 3.0 // multiples of the morsel EWMA before a morsel is re-issued
	SpecMinSamples = 4   // completed morsels before that EWMA is trusted
)

// NewPolicy returns a Policy with hedging and speculation enabled and
// the defaults used by the experiments: hedge at ewma+3*dev (floored at
// 200us), speculate at 3x the morsel EWMA after 4 completions, breakers
// tripping after 4 consecutive failures with a 50ms cooldown, and a
// retry budget of 10% of observed ops (burst 32).
func NewPolicy() *Policy {
	return &Policy{
		Health:        NewTracker(0.2, 4),
		Breakers:      NewBreakerSet(BreakerConfig{TripThreshold: 4, Cooldown: 50 * time.Millisecond, HalfOpenProbes: 1}),
		Budget:        NewBudget(0.1, 32),
		Hedge:         true,
		HedgeMinDelay: 200 * time.Microsecond,
		Speculate:     true,
	}
}
