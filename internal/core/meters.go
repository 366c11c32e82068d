package core

import (
	"repro/internal/fabric"
	"repro/internal/obs"
	"repro/internal/resilience"
	"repro/internal/sim"
)

// fold starts an ExecStats from the query's account, read once the
// execution's goroutines have joined: who was busy, what crossed which
// link, and what reached the cores — cpu's share, or that of every
// CPU-kind device when cpu is nil. Busy times are effective readings
// (lane work divided across a resource's units, fabric.Usage.Effective),
// so they reflect worker-pool parallelism while the byte totals stay
// identical to a serial run. SimTime is the pipelined makespan: the
// busiest single resource — returned beside the stats, for the pull
// engine's per-miss model and the waste of an abandoned attempt — plus
// one latency per link that moved payload.
func fold(acct *fabric.Account, cpu *fabric.Device) (st ExecStats, busiest sim.VTime) {
	st = ExecStats{
		DeviceBusy: make(map[string]sim.VTime),
		LinkBytes:  make(map[string]sim.Bytes),
		LinkBusy:   make(map[string]sim.VTime),
	}
	acct.EachDevice(func(d *fabric.Device, u fabric.Usage) {
		if u.Effective > 0 {
			st.DeviceBusy[d.Name] = u.Effective
			busiest = max(busiest, u.Effective)
		}
		if d == cpu || (cpu == nil && d.Kind == fabric.KindCPU) {
			st.CPUBytes += u.Bytes
			st.CPUBusy += u.Effective
		}
	})
	acct.EachLink(func(l *fabric.Link, u fabric.Usage) {
		if u.Bytes == 0 {
			return
		}
		// Only multi-queue links (flash channels, DMA queues) ever
		// split into lanes; network links stay serial.
		st.LinkBytes[l.Name] = u.Bytes
		st.LinkBusy[l.Name] = u.Effective
		st.MovedBytes += u.Bytes
		busiest = max(busiest, u.Effective)
		st.SimTime += l.Latency
	})
	st.SimTime += busiest
	return st, busiest
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

// sampleMeterSeries writes what the query's account holds for every
// device and link into named trace series: one point at virtual time 0
// and one at the trace makespan. Resources that did no work are skipped.
func sampleMeterSeries(tr *obs.Trace, acct *fabric.Account) {
	if !tr.Enabled() {
		return
	}
	mk := tr.Makespan()
	acct.EachDevice(func(d *fabric.Device, u fabric.Usage) {
		if u.Bytes == 0 && u.Busy == 0 {
			return
		}
		tr.Sample("meter."+d.Name+".bytes", "bytes", 0, 0)
		tr.Sample("meter."+d.Name+".bytes", "bytes", mk, float64(u.Bytes))
		tr.Sample("meter."+d.Name+".busy", "vns", 0, 0)
		tr.Sample("meter."+d.Name+".busy", "vns", mk, float64(u.Busy))
	})
	acct.EachLink(func(l *fabric.Link, u fabric.Usage) {
		if u.Bytes == 0 && u.Messages == 0 {
			return
		}
		tr.Sample("meter."+l.Name+".bytes", "bytes", 0, 0)
		tr.Sample("meter."+l.Name+".bytes", "bytes", mk, float64(u.Bytes))
		tr.Sample("meter."+l.Name+".messages", "count", 0, 0)
		tr.Sample("meter."+l.Name+".messages", "count", mk, float64(u.Messages))
	})
}
