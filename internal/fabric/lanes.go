package fabric

import (
	"sync"

	"repro/internal/sim"
)

// laneMeter accumulates per-lane virtual busy time next to a device or
// link's main sim.Meter. Lanes model the concurrent processing units of
// a resource (cores, flash channels, DMA queues): work charged to
// different lanes overlaps in time, work on the same lane serializes.
//
// The main meter stays authoritative for totals — lane charging adds
// the identical Snapshot to it — so enabling parallelism never changes
// metered byte/busy sums, only the makespan engines derive from them.
// All methods are safe for concurrent use.
type laneMeter struct {
	mu   sync.Mutex
	busy []sim.VTime
}

// add folds t into the lane's busy time, growing the lane table on
// demand. Negative lanes fold into lane 0.
func (lm *laneMeter) add(lane int, t sim.VTime) {
	if lane < 0 {
		lane = 0
	}
	lm.mu.Lock()
	for len(lm.busy) <= lane {
		lm.busy = append(lm.busy, 0)
	}
	lm.busy[lane] += t
	lm.mu.Unlock()
}

// snapshot returns a consistent copy of the per-lane busy times.
func (lm *laneMeter) snapshot() []sim.VTime {
	lm.mu.Lock()
	out := make([]sim.VTime, len(lm.busy))
	copy(out, lm.busy)
	lm.mu.Unlock()
	return out
}

// EffectiveBusy folds a resource's total busy delta and its per-lane
// busy deltas into the virtual time the resource actually occupies the
// critical path: lane-charged work runs on parallel units, so only the
// slowest lane counts, while everything charged without a lane stays
// serial. With no lane activity (or a single lane) this reduces to the
// plain busy delta, so serial runs are bit-identical to the pre-lane
// model.
func EffectiveBusy(busy sim.VTime, lanesBefore, lanesAfter []sim.VTime) sim.VTime {
	var sum, max sim.VTime
	for i, after := range lanesAfter {
		var before sim.VTime
		if i < len(lanesBefore) {
			before = lanesBefore[i]
		}
		d := after - before
		sum += d
		if d > max {
			max = d
		}
	}
	serial := busy - sum
	if serial < 0 {
		serial = 0
	}
	return serial + max
}
