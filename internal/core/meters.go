package core

import (
	"repro/internal/fabric"
	"repro/internal/obs"
	"repro/internal/resilience"
	"repro/internal/sim"
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

// meterFold is the work metered since a mark, in the shape every stats
// builder needs. Busy times are effective readings (lane work divided
// across a resource's units), so they reflect worker-pool parallelism
// while the byte totals stay identical to a serial run.
type meterFold struct {
	DeviceBusy map[string]sim.VTime // devices that did any work
	LinkBytes  map[string]sim.Bytes // links that moved any payload
	LinkBusy   map[string]sim.VTime // their busy time, same keys
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
		LinkBusy:   make(map[string]sim.VTime),
	}
	for i, d := range mk.devices {
		prev := mk.snaps[i]
		delta := d.Meter.Snapshot().Sub(prev.m)
		busy := fabric.EffectiveBusy(delta.Busy, prev.lanes, d.LaneBusy())
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
		prev := mk.snaps[len(mk.devices)+i]
		delta := l.Meter.Snapshot().Sub(prev.m)
		if delta.Bytes == 0 {
			continue
		}
		// Only multi-queue links (flash channels, DMA queues) ever
		// split into lanes; network links stay serial.
		busy := fabric.EffectiveBusy(delta.Busy, prev.lanes, l.LaneBusy())
		f.LinkBytes[l.Name] = delta.Bytes
		f.LinkBusy[l.Name] = busy
		f.MovedBytes += delta.Bytes
		f.Bottleneck = max(f.Bottleneck, busy)
		f.HopLatency += l.Latency
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
		LinkBusy:   f.LinkBusy,
		MovedBytes: f.MovedBytes,
		CPUBytes:   f.CPUBytes,
		CPUBusy:    f.CPUBusy,
		SimTime:    f.Bottleneck + f.HopLatency,
		ResultRows: res.Rows(),
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
