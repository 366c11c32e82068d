// Package wiring is the engine's one wiring point: the optional
// subsystems every layer may consult, declared once. It is a leaf — it
// imports only the subsystems themselves — so storage, sched, flow,
// repair and core can all hold the same pointer without a cycle.
package wiring

import (
	"repro/internal/faults"
	"repro/internal/obs/metrics"
	"repro/internal/resilience"
	"repro/internal/sim"
)

// Services holds the optional subsystems of one engine. The engine
// allocates it and hands the one pointer to every layer it builds (the
// object store, the scheduler, each pipeline run; the storage server and
// the repair controller reach it through the store they hold), and every
// layer reads the member it needs at the point of use — nothing is
// copied, so assigning a member here is all it takes for every layer to
// see it, in any order.
//
// A nil member is off and costs its readers one nil check; a nil clock
// is the wall clock. Members are plain fields with no lock: set them
// before the first query runs.
type Services struct {
	// Metrics receives continuous fleet telemetry: per-query resource
	// attribution, latency histograms, utilization gauges and the
	// counters each layer folds in (scan.*, storage.*, sched.*, flow.*,
	// durability.*).
	Metrics *metrics.Registry
	// Resilience bundles the gray-failure defenses: the store ranks and
	// hedges replica reads, the scan speculates on straggling morsels,
	// pipelines feed stage latencies to the health tracker, the scheduler
	// consults the circuit breakers, the repair controller forgives what
	// it heals, and every retry spends from the one budget.
	Resilience *resilience.Policy
	// SLO receives every query's wall latency; its burn rate sheds
	// arrivals at the scheduler (Scheduler.SLOShedBurnRate) and pauses
	// background repair (repair.Config.BurnMax).
	SLO *metrics.SLOTracker
	// Faults injects faults: read-path faults and gray slowdowns at the
	// object store, link jitter at the storage server, mid-query device
	// loss in the pipelines. Every armed point draws from its own seeded
	// stream, so layers checking different points never perturb each
	// other's schedule.
	Faults *faults.Injector
	// Clock is the time every layer reads, sleeps and times out on: the
	// engines' wall latency, the scheduler's admission stamps and
	// deadline projection, the pipelines' stage latencies, the store's
	// backoff, hedge timer and health observations, the scan's
	// speculation, and the repair controller's pacing and MTTR. Nil is
	// the wall clock, not off.
	Clock *sim.Clock
}
