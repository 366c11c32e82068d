package fabric

import (
	"sync"
	"testing"

	"repro/internal/sim"
)

// accountTopology is a CPU with four cores behind a two-queue link.
func accountTopology() (*Topology, *Device, *Link) {
	t := NewTopology("acct")
	t.AddDevice(NewMemory("dram"))
	cpu := t.AddDevice(NewCPU("cpu", 4))
	l := t.Connect("dram", "cpu", LinkDDR, sim.GBPerSec, 100)
	l.Parallelism = 2
	return t, cpu, l
}

// Every charge method charges the lifetime meter what the plain method
// charges and records the same numbers on the account; lane charges
// split the busy time by lane without changing a total.
func TestAccountRecordsWhatTheMetersGain(t *testing.T) {
	topo, cpu, l := accountTopology()
	a := topo.NewAccount()
	a.Charge(cpu, OpFilter, 3000)
	a.ChargeSetup(cpu)
	lane1 := a.ChargeLane(cpu, OpFilter, 6000, 1)
	lane2 := a.ChargeLane(cpu, OpFilter, 3000, 2)
	a.ChargeLane(cpu, OpFilter, 3000, 6) // wraps to lane 2
	a.Transfer(l, 1000)
	a.TransferQD(l, 1000, 0)
	a.TransferQD(l, 1000, 3) // wraps to lane 1
	a.Message(l)

	dev, link := a.Device(cpu), a.Link(l)
	if dev.Snapshot != cpu.Meter.Snapshot() || link.Snapshot != l.Meter.Snapshot() {
		t.Fatalf("account != meters: %+v vs %+v, %+v vs %+v", dev.Snapshot, cpu.Meter.Snapshot(), link.Snapshot, l.Meter.Snapshot())
	}
	// Lane work overlaps: the slowest lane counts, the rest of the lane
	// work does not, everything charged without a lane stays serial.
	if want := dev.Busy - lane1 - 2*lane2 + max(lane1, 2*lane2); dev.Effective != want {
		t.Errorf("device effective busy = %v, want %v", dev.Effective, want)
	}
	// Only the command latency of a queued transfer overlaps: two lanes
	// hold one latency each, so one of the two is hidden.
	if want := link.Busy - l.Latency; link.Effective != want {
		t.Errorf("link effective busy = %v, want %v", link.Effective, want)
	}
	var devices, links int
	a.EachDevice(func(d *Device, u Usage) {
		devices++
		if (d == cpu) != (u.Busy > 0) {
			t.Errorf("EachDevice(%s) = %+v", d.Name, u)
		}
	})
	a.EachLink(func(*Link, Usage) { links++ })
	if devices != 2 || links != 1 {
		t.Errorf("EachDevice visited %d devices, EachLink %d links; want 2 and 1", devices, links)
	}
}

// A nil account charges the meters and nothing else; a resource of
// another topology is a construction bug that panics, not a charge
// that goes missing.
func TestAccountNilAndForeignResources(t *testing.T) {
	topo, cpu, l := accountTopology()
	var none *Account
	if none.Charge(cpu, OpFilter, 3000) == 0 || none.ChargeLane(cpu, OpFilter, 3000, 1) == 0 ||
		none.ChargeSetup(cpu) != cpu.KernelSetup || none.Transfer(l, 10) == 0 || none.TransferQD(l, 10, 1) == 0 || none.Message(l) != l.Latency {
		t.Error("a nil account did not charge the meters")
	}
	if cpu.Meter.Ops() != 2 || l.Meter.Ops() != 2 || l.Meter.Messages() != 1 {
		t.Errorf("meters after nil-account charges: cpu %+v link %+v", cpu.Meter.Snapshot(), l.Meter.Snapshot())
	}

	a := topo.NewAccount()
	_, foreignCPU, foreignLink := accountTopology() // same names, same indexes, other topology
	for name, charge := range map[string]func(){
		"foreign device":    func() { a.Charge(foreignCPU, OpFilter, 1) },
		"foreign link":      func() { a.Transfer(foreignLink, 1) },
		"standalone device": func() { a.ChargeSetup(NewCPU("loose", 1)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s charged to the account without a panic", name)
				}
			}()
			charge()
		}()
	}
}

// Since(nil) is a copy later charges do not reach, and Since(copy) is
// what was charged after the copy was taken, lane by lane.
func TestAccountSince(t *testing.T) {
	topo, cpu, l := accountTopology()
	a := topo.NewAccount()
	a.ChargeLane(cpu, OpFilter, 3000, 0)
	a.Transfer(l, 500)
	cut := a.Since(nil)
	if cut.Device(cpu).Snapshot != a.Device(cpu).Snapshot || cut.Link(l).Snapshot != a.Link(l).Snapshot {
		t.Fatal("Since(nil) is not a copy")
	}
	first := a.ChargeLane(cpu, OpFilter, 3000, 0)
	second := a.ChargeLane(cpu, OpFilter, 9000, 1)
	a.TransferQD(l, 700, 1)
	if got := cut.Device(cpu); got.Ops != 1 || got.Effective != got.Busy {
		t.Errorf("the copy moved with its original: %+v", got)
	}
	// Lane 0 held work before the cut; after it lane 1 is the slower one,
	// which only a lane-by-lane subtraction can tell.
	after := a.Since(cut)
	if got := after.Device(cpu); got.Bytes != 12000 || got.Ops != 2 || got.Busy != first+second || got.Effective != second {
		t.Errorf("device since the cut = %+v, want busy %v of which %v effective", got, first+second, second)
	}
	if got := after.Link(l); got.Bytes != 700 || got.Ops != 1 || got.Effective != got.Busy {
		t.Errorf("link since the cut = %+v", got)
	}
}

// Several accounts charged from many goroutines at once sum to what
// the shared meters gained.
func TestAccountsSumToTheMeters(t *testing.T) {
	topo, cpu, l := accountTopology()
	accounts := []*Account{topo.NewAccount(), topo.NewAccount(), topo.NewAccount()}
	var wg sync.WaitGroup
	for i, a := range accounts {
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for n := 0; n < 50*(i+1); n++ {
					a.ChargeLane(cpu, OpFilter, sim.Bytes(100+n), g)
					a.TransferQD(l, sim.Bytes(10+n), g)
					a.Message(l)
				}
			}()
		}
	}
	wg.Wait()
	var dev, link sim.Snapshot
	for _, a := range accounts {
		d, k := a.Device(cpu).Snapshot, a.Link(l).Snapshot
		dev = sim.Snapshot{Bytes: dev.Bytes + d.Bytes, Busy: dev.Busy + d.Busy, Ops: dev.Ops + d.Ops, Messages: dev.Messages + d.Messages}
		link = sim.Snapshot{Bytes: link.Bytes + k.Bytes, Busy: link.Busy + k.Busy, Ops: link.Ops + k.Ops, Messages: link.Messages + k.Messages}
	}
	if dev != cpu.Meter.Snapshot() || link != l.Meter.Snapshot() {
		t.Errorf("accounts sum to %+v / %+v, the meters hold %+v / %+v", dev, link, cpu.Meter.Snapshot(), l.Meter.Snapshot())
	}
	if accounts[0].Device(cpu).Ops != 200 || accounts[2].Device(cpu).Ops != 600 {
		t.Errorf("accounts hold each other's charges: %d and %d ops, want 200 and 600",
			accounts[0].Device(cpu).Ops, accounts[2].Device(cpu).Ops)
	}
}
