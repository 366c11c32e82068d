package fabric

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/sim"
)

// Account is what one query charged the devices and links of one
// topology: for each the four counters a sim.Meter holds, plus the busy
// time charged to each of the resource's lanes. Lanes model a resource's
// concurrent units (cores, flash channels, DMA queues): work on different
// lanes overlaps in virtual time, work on one lane — and everything
// charged without one — serializes. Which lane did what is one query's
// state, so it lives here and not on the shared Device or Link.
//
// An engine creates one account per execution (Topology.NewAccount) and
// hands it down as a field of whatever describes the work:
// storage.ScanSpec, flow.Pipeline, netsim.Exchange, netsim.DistJoinConfig.
// Every charge method charges the resource's lifetime Meter exactly as
// the Device or Link method it is named after and records the same
// numbers here, so the accounts of all queries sum to what the meters
// gained, however many ran at once. A nil *Account is unaccounted work:
// the meters are charged and nothing else happens. A device or link
// outside the account's topology is a construction bug and panics — a
// dropped charge would under-report in silence. Charging is safe from
// any number of goroutines; a reading is the query's total once the
// goroutines that charge have been joined.
type Account struct {
	topo    *Topology
	mu      sync.Mutex
	devices []usage // by Device.index
	links   []usage // by Link.index
}

// usage is one resource's entry in an account.
type usage struct {
	total sim.Snapshot
	lanes []sim.VTime // one per unit, allocated by the first lane charge
}

// NewAccount returns an empty account over the topology's devices and
// links as they are now; the two lists share one allocation.
func (t *Topology) NewAccount() *Account {
	n := len(t.deviceList)
	entries := make([]usage, n+len(t.linkList))
	return &Account{topo: t, devices: entries[:n:n], links: entries[n:]}
}

// device returns d's entry, nil on a nil account.
func (a *Account) device(d *Device) *usage {
	if a == nil {
		return nil
	}
	if d.index >= len(a.devices) || a.topo.deviceList[d.index] != d {
		panic(fmt.Sprintf("fabric: device %s charged to an account of topology %s, which does not hold it", d.Name, a.topo.Name))
	}
	return &a.devices[d.index]
}

// link returns l's entry, nil on a nil account.
func (a *Account) link(l *Link) *usage {
	if a == nil {
		return nil
	}
	if l.index >= len(a.links) || a.topo.linkList[l.index] != l {
		panic(fmt.Sprintf("fabric: link %s charged to an account of topology %s, which does not hold it", l.Name, a.topo.Name))
	}
	return &a.links[l.index]
}

// record adds one charge to entry u; a nil account's entries are nil
// and record nothing. With units > 0 the charge ran on one of the
// resource's units and onLane of its busy time lands on that lane.
// Lanes are positional (callers derive them from sequence numbers, not
// goroutine identity), so seeded runs account deterministically; they
// wrap at units.
func (a *Account) record(u *usage, s sim.Snapshot, lane, units int, onLane sim.VTime) {
	if u == nil {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	u.total.Bytes += s.Bytes
	u.total.Busy += s.Busy
	u.total.Ops += s.Ops
	u.total.Messages += s.Messages
	if units > 0 {
		if u.lanes == nil {
			u.lanes = make([]sim.VTime, units)
		}
		u.lanes[lane%units] += onLane
	}
}

// Charge is d.Charge, recorded on the account.
func (a *Account) Charge(d *Device, op OpClass, n sim.Bytes) sim.VTime {
	t := d.Charge(op, n)
	a.record(a.device(d), sim.Snapshot{Bytes: n, Busy: t, Ops: 1}, 0, 0, 0)
	return t
}

// ChargeLane is Charge executed on one of the device's parallel units:
// the totals are those of Charge, and the busy time also lands on the
// lane, so Usage.Effective overlaps it with the other lanes' work.
func (a *Account) ChargeLane(d *Device, op OpClass, n sim.Bytes, lane int) sim.VTime {
	t := d.Charge(op, n)
	a.record(a.device(d), sim.Snapshot{Bytes: n, Busy: t, Ops: 1}, lane, d.Units(), t)
	return t
}

// ChargeSetup is d.ChargeSetup, recorded on the account.
func (a *Account) ChargeSetup(d *Device) sim.VTime {
	t := d.ChargeSetup()
	a.record(a.device(d), sim.Snapshot{Busy: t}, 0, 0, 0)
	return t
}

// Transfer is l.Transfer, recorded on the account.
func (a *Account) Transfer(l *Link, n sim.Bytes) sim.VTime {
	t := l.Transfer(n)
	a.record(a.link(l), sim.Snapshot{Bytes: n, Busy: t, Ops: 1}, 0, 0, 0)
	return t
}

// TransferQD is Transfer for links whose protocol keeps several
// commands in flight (an NVMe submission queue): the totals are those
// of Transfer, but only the per-command latency lands on the lane, so
// Usage.Effective overlaps latency across up to Units() outstanding
// requests while the bandwidth term stays a serial resource shared by
// every lane. With a single lane in use this is indistinguishable from
// Transfer.
func (a *Account) TransferQD(l *Link, n sim.Bytes, lane int) sim.VTime {
	t := l.Transfer(n)
	a.record(a.link(l), sim.Snapshot{Bytes: n, Busy: t, Ops: 1}, lane, l.Units(), l.Latency)
	return t
}

// Message is l.Message, recorded on the account.
func (a *Account) Message(l *Link) sim.VTime {
	t := l.Message()
	a.record(a.link(l), sim.Snapshot{Busy: t, Messages: 1}, 0, 0, 0)
	return t
}

// Usage is an account's reading of one resource.
type Usage struct {
	sim.Snapshot
	// Effective is the virtual time the resource occupies the query's
	// critical path: lane-charged work runs on parallel units, so only
	// the slowest lane counts, while everything charged without a lane
	// stays serial. With no lane activity (or a single lane) this is
	// Busy, so serial runs read exactly what they charged.
	Effective sim.VTime
}

// read copies entry u out.
func (a *Account) read(u *usage) Usage {
	a.mu.Lock()
	defer a.mu.Unlock()
	var sum, slowest sim.VTime
	for _, t := range u.lanes {
		sum += t
		slowest = max(slowest, t)
	}
	return Usage{Snapshot: u.total, Effective: u.total.Busy - sum + slowest}
}

// Device reads what the account holds for d.
func (a *Account) Device(d *Device) Usage { return a.read(a.device(d)) }

// Link reads what the account holds for l.
func (a *Account) Link(l *Link) Usage { return a.read(a.link(l)) }

// EachDevice calls fn with the reading of every device of the
// account's topology, in the order the topology added them.
func (a *Account) EachDevice(fn func(*Device, Usage)) {
	for i, d := range a.topo.deviceList[:len(a.devices)] {
		fn(d, a.read(&a.devices[i]))
	}
}

// EachLink is EachDevice for the links.
func (a *Account) EachLink(fn func(*Link, Usage)) {
	for i, l := range a.topo.linkList[:len(a.links)] {
		fn(l, a.read(&a.links[i]))
	}
}

// Since returns a new account holding what a has been charged beyond
// prev, an earlier copy of a itself; Since(nil) is that copy, one
// consistent cut across all resources. A checkpoint keeps one and,
// should the attempt die, subtracts it to learn what was charged — and
// lost — after the cut.
func (a *Account) Since(prev *Account) *Account {
	out := a.topo.NewAccount()
	if prev == nil {
		prev = &Account{}
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	since(out.devices, a.devices, prev.devices)
	since(out.links, a.links, prev.links)
	return out
}

// since fills out with cur minus prev, entry by entry; a nil prev
// subtracts nothing.
func since(out, cur, prev []usage) {
	for i, u := range cur {
		out[i] = usage{total: u.total, lanes: slices.Clone(u.lanes)}
		if prev != nil {
			out[i].total = u.total.Sub(prev[i].total)
			for lane, t := range prev[i].lanes {
				out[i].lanes[lane] -= t
			}
		}
	}
}
