package core

import (
	"repro/internal/fabric"
	"repro/internal/obs"
	"repro/internal/resilience"
	"repro/internal/sim"
	"repro/internal/storage"
)

// meterSnap captures one meter plus its per-lane busy split, so a later
// delta can divide replicated-lane work across a device's units
// (fabric.EffectiveBusy) while keeping the aggregate totals exact.
type meterSnap struct {
	m     sim.Snapshot
	lanes []sim.VTime
}

// meterMark is every device and link meter at one instant, in the
// cluster's fixed Devices()/Links() order, so a later fold isolates one
// execution's work from the cluster's running totals.
type meterMark struct {
	devices []*fabric.Device
	links   []*fabric.Link
	snaps   []meterSnap // devices first, then links
}

// markMeters takes a mark of the cluster's meters.
func markMeters(c *fabric.Cluster) meterMark {
	mk := meterMark{devices: c.Devices(), links: c.Links()}
	mk.snaps = make([]meterSnap, 0, len(mk.devices)+len(mk.links))
	for _, d := range mk.devices {
		mk.snaps = append(mk.snaps, meterSnap{m: d.Meter.Snapshot(), lanes: d.LaneBusy()})
	}
	for _, l := range mk.links {
		mk.snaps = append(mk.snaps, meterSnap{m: l.Meter.Snapshot(), lanes: l.LaneBusy()})
	}
	return mk
}

// deviceDelta returns a device's meter delta since prev, plus its
// effective busy time: work charged to positional lanes is divided
// across the device's replicated units, everything else stays serial.
func deviceDelta(d *fabric.Device, prev meterSnap) (sim.Snapshot, sim.VTime) {
	delta := d.Meter.Snapshot().Sub(prev.m)
	return delta, fabric.EffectiveBusy(delta.Busy, prev.lanes, d.LaneBusy())
}

// linkDelta is deviceDelta for links; only multi-queue links (flash
// channels, DMA queues) ever split, network links stay serial.
func linkDelta(l *fabric.Link, prev meterSnap) (sim.Snapshot, sim.VTime) {
	delta := l.Meter.Snapshot().Sub(prev.m)
	return delta, fabric.EffectiveBusy(delta.Busy, prev.lanes, l.LaneBusy())
}

// meterFold is the work metered since a mark, in the shape every stats
// builder needs. Busy times are effective readings (lane work divided
// across a resource's units), so they reflect worker-pool parallelism
// while the byte totals stay identical to a serial run.
type meterFold struct {
	DeviceBusy map[string]sim.VTime // devices that did any work
	LinkBytes  map[string]sim.Bytes // links that moved any payload
	MovedBytes sim.Bytes            // sum of LinkBytes
	CPUBytes   sim.Bytes
	CPUBusy    sim.VTime
	// Bottleneck is the busiest single resource; HopLatency one latency
	// per link that moved payload. A pipelined makespan is their sum.
	Bottleneck sim.VTime
	HopLatency sim.VTime
}

// fold reads every meter against the mark. CPUBytes/CPUBusy are those of
// cpu, or of every CPU-kind device when cpu is nil.
func (mk meterMark) fold(cpu *fabric.Device) meterFold {
	f := meterFold{
		DeviceBusy: make(map[string]sim.VTime),
		LinkBytes:  make(map[string]sim.Bytes),
	}
	for i, d := range mk.devices {
		delta, busy := deviceDelta(d, mk.snaps[i])
		if busy > 0 {
			f.DeviceBusy[d.Name] = busy
			f.Bottleneck = max(f.Bottleneck, busy)
		}
		if d == cpu || (cpu == nil && d.Kind == fabric.KindCPU) {
			f.CPUBytes += delta.Bytes
			f.CPUBusy += busy
		}
	}
	for i, l := range mk.links {
		delta, busy := linkDelta(l, mk.snaps[len(mk.devices)+i])
		if delta.Bytes > 0 {
			f.LinkBytes[l.Name] = delta.Bytes
			f.MovedBytes += delta.Bytes
			f.Bottleneck = max(f.Bottleneck, busy)
			f.HopLatency += l.Latency
		}
	}
	return f
}

// stats starts an ExecStats from the fold; SimTime is the pipelined
// makespan, which the pull engine overrides with its per-miss model.
func (f meterFold) stats(engine, variant string, res *Result) ExecStats {
	return ExecStats{
		Engine:     engine,
		Variant:    variant,
		LinkBytes:  f.LinkBytes,
		DeviceBusy: f.DeviceBusy,
		MovedBytes: f.MovedBytes,
		CPUBytes:   f.CPUBytes,
		CPUBusy:    f.CPUBusy,
		SimTime:    f.Bottleneck + f.HopLatency,
		ResultRows: res.Rows(),
	}
}

// resilienceSnap captures the monotonic gray-failure counters a policy
// and its object store accumulate, so a later fold isolates one query's
// hedges, breaker trips and budget denials from the running totals.
type resilienceSnap struct {
	hedges    storage.HedgeStats
	trips     int64
	exhausted int64
}

// snapshotResilience captures the current counters; nil policy is fine
// (the snapshot then only carries the store's hedge totals, which stay
// flat with hedging disabled).
func snapshotResilience(store *storage.ObjectStore, pol *resilience.Policy) resilienceSnap {
	snap := resilienceSnap{hedges: store.Hedges()}
	if pol != nil {
		snap.trips = pol.Breakers.Trips()
		snap.exhausted = pol.Budget.Exhausted()
	}
	return snap
}

// foldResilience sets (not adds — callers may re-fold over a wider
// window) the stats' gray-failure counters to the delta since before.
func foldResilience(st *ExecStats, store *storage.ObjectStore, pol *resilience.Policy, before resilienceSnap) {
	h := store.Hedges().Sub(before.hedges)
	st.HedgedReads = h.Hedged
	st.HedgeWins = h.Wins
	st.HedgeBytes = h.Bytes
	if pol != nil {
		st.BreakerTrips = pol.Breakers.Trips() - before.trips
		st.RetryBudgetExhausted = pol.Budget.Exhausted() - before.exhausted
	}
}

// sampleHealthSeries publishes the policy's per-key latency EWMAs and
// deviations as trace metric series, one point at the trace makespan —
// the operator-facing view of which device or stage is graying out.
// Keys iterate sorted, so traced runs render deterministically.
func sampleHealthSeries(tr *obs.Trace, pol *resilience.Policy) {
	if !tr.Enabled() || pol == nil || pol.Health == nil {
		return
	}
	mk := tr.Makespan()
	for _, key := range pol.Health.Keys() {
		lat, ok := pol.Health.Latency(key)
		if !ok {
			continue
		}
		dev, _ := pol.Health.Deviation(key)
		tr.Sample("health."+key+".ewma", "ns", mk, float64(lat))
		tr.Sample("health."+key+".dev", "ns", mk, float64(dev))
	}
}

// sampleMeterSeries snapshots every cluster meter's query-lifecycle
// delta into named trace series: one point at virtual time 0 and one at
// the trace makespan. Deterministic: devices and links iterate in the
// cluster's fixed order. Meters that did no work are skipped.
func sampleMeterSeries(tr *obs.Trace, before meterMark) {
	if !tr.Enabled() {
		return
	}
	mk := tr.Makespan()
	for i, d := range before.devices {
		delta := d.Meter.Snapshot().Sub(before.snaps[i].m)
		if delta.Bytes == 0 && delta.Busy == 0 {
			continue
		}
		tr.Sample("meter."+d.Name+".bytes", "bytes", 0, 0)
		tr.Sample("meter."+d.Name+".bytes", "bytes", mk, float64(delta.Bytes))
		tr.Sample("meter."+d.Name+".busy", "vns", 0, 0)
		tr.Sample("meter."+d.Name+".busy", "vns", mk, float64(delta.Busy))
	}
	for i, l := range before.links {
		delta := l.Meter.Snapshot().Sub(before.snaps[len(before.devices)+i].m)
		if delta.Bytes == 0 && delta.Messages == 0 {
			continue
		}
		tr.Sample("meter."+l.Name+".bytes", "bytes", 0, 0)
		tr.Sample("meter."+l.Name+".bytes", "bytes", mk, float64(delta.Bytes))
		tr.Sample("meter."+l.Name+".messages", "count", 0, 0)
		tr.Sample("meter."+l.Name+".messages", "count", mk, float64(delta.Messages))
	}
}
