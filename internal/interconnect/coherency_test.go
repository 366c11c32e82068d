package interconnect

import (
	"testing"
	"testing/quick"

	"repro/internal/fabric"
	"repro/internal/sim"
)

func testLink() *fabric.Link {
	return &fabric.Link{Name: "l", A: "a", B: "b",
		Bandwidth: fabric.PCIeBandwidth[fabric.LinkCXL], Latency: fabric.CXLLatency}
}

func TestHardwareReadCachesAndHits(t *testing.T) {
	d := NewDomain(HardwareCXL, testLink())
	d.Write("cpu", 1, 42)
	v, st1 := d.Read("accel", 1)
	if v != 42 {
		t.Fatalf("read = %d", v)
	}
	if st1.Hits != 0 || st1.Bytes != CacheLine {
		t.Errorf("first read stats = %+v, want miss", st1)
	}
	v, st2 := d.Read("accel", 1)
	if v != 42 || st2.Hits != 1 || st2.Bytes != 0 {
		t.Errorf("second read = %d stats %+v, want cached hit", v, st2)
	}
}

func TestHardwareWriteInvalidatesSharers(t *testing.T) {
	d := NewDomain(HardwareCXL, testLink())
	d.Write("cpu", 7, 1)
	d.Read("a1", 7)
	d.Read("a2", 7)
	d.Read("a3", 7)
	st := d.Write("cpu", 7, 2)
	if st.Messages != 3 {
		t.Errorf("invalidations = %d, want 3", st.Messages)
	}
	// All agents see the new value; their first re-read is a miss.
	for _, agent := range []string{"a1", "a2", "a3"} {
		v, rst := d.Read(agent, 7)
		if v != 2 {
			t.Errorf("%s read stale value %d", agent, v)
		}
		if rst.Hits != 0 {
			t.Errorf("%s hit on invalidated line", agent)
		}
	}
	if d.Agents() != 4 {
		t.Errorf("Agents = %d, want 4", d.Agents())
	}
}

func TestHardwareWriteNoSharersNoMessages(t *testing.T) {
	d := NewDomain(HardwareCXL, testLink())
	st := d.Write("cpu", 1, 5)
	if st.Messages != 0 {
		t.Errorf("write with no sharers sent %d invalidations", st.Messages)
	}
}

func TestSoftwareNeverCaches(t *testing.T) {
	d := NewDomain(SoftwareRDMA, testLink())
	d.Write("cpu", 1, 10)
	for i := 0; i < 3; i++ {
		v, st := d.Read("accel", 1)
		if v != 10 {
			t.Fatalf("read = %d", v)
		}
		if st.Hits != 0 || st.Bytes != CacheLine {
			t.Errorf("software read %d cached: %+v", i, st)
		}
	}
}

func TestSoftwareWriteLockCost(t *testing.T) {
	d := NewDomain(SoftwareRDMA, testLink())
	st := d.Write("cpu", 1, 10)
	if st.Messages != 3 {
		t.Errorf("software write messages = %d, want 3 (lock/grant/unlock)", st.Messages)
	}
}

func TestReadMostlyWorkloadFavorsHardware(t *testing.T) {
	// The paper's claim: hardware coherency lets many agents cache and
	// operate on the latest contents simultaneously. Under a
	// read-mostly mix, hardware must do far better.
	run := func(mode Mode) AccessStats {
		d := NewDomain(mode, testLink())
		var total AccessStats
		rng := sim.NewRNG(42)
		for i := 0; i < 2000; i++ {
			agent := []string{"a", "b", "c", "d"}[rng.Intn(4)]
			line := int64(rng.Intn(16))
			if rng.Intn(10) == 0 { // 10% writes
				total.Add(d.Write(agent, line, int64(i)))
			} else {
				_, st := d.Read(agent, line)
				total.Add(st)
			}
		}
		return total
	}
	hw := run(HardwareCXL)
	sw := run(SoftwareRDMA)
	if hw.Bytes*2 >= sw.Bytes {
		t.Errorf("hardware moved %v vs software %v; want >=2x reduction", hw.Bytes, sw.Bytes)
	}
	if hw.Time >= sw.Time {
		t.Errorf("hardware time %v >= software %v", hw.Time, sw.Time)
	}
	if hw.Hits == 0 {
		t.Error("hardware mode recorded no cache hits")
	}
}

// Property: in both modes, a read after a write always returns the last
// written value (no stale reads), for any interleaving of agents.
func TestCoherencyNoStaleReadsProperty(t *testing.T) {
	f := func(ops []struct {
		Agent byte
		Line  uint8
		Write bool
		Val   int64
	}, hw bool) bool {
		mode := SoftwareRDMA
		if hw {
			mode = HardwareCXL
		}
		d := NewDomain(mode, testLink())
		last := make(map[int64]int64)
		for _, op := range ops {
			agent := string(rune('a' + op.Agent%5))
			line := int64(op.Line % 8)
			if op.Write {
				d.Write(agent, line, op.Val)
				last[line] = op.Val
			} else {
				v, _ := d.Read(agent, line)
				if v != last[line] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestNewHostLinkGenerations(t *testing.T) {
	prev := sim.Rate(0)
	for _, kind := range []fabric.LinkKind{fabric.LinkPCIe3, fabric.LinkPCIe4, fabric.LinkPCIe5, fabric.LinkPCIe6, fabric.LinkPCIe7} {
		l, err := NewHostLink(kind)
		if err != nil {
			t.Fatal(err)
		}
		if l.Bandwidth != prev*2 && prev != 0 {
			t.Errorf("%v bandwidth %v is not double the previous %v", kind, l.Bandwidth, prev)
		}
		prev = l.Bandwidth
	}
	cxl, err := NewHostLink(fabric.LinkCXL)
	if err != nil {
		t.Fatal(err)
	}
	if cxl.Latency >= fabric.PCIeLatency {
		t.Error("CXL latency not lower than plain PCIe")
	}
	if _, err := NewHostLink(fabric.LinkEth100); err == nil {
		t.Error("Ethernet accepted as host link")
	}
}

func TestModeString(t *testing.T) {
	if SoftwareRDMA.String() != "software-rdma" || HardwareCXL.String() != "hardware-cxl" {
		t.Error("mode names wrong")
	}
	if Mode(9).String() == "" {
		t.Error("unknown mode empty")
	}
}

// Agents reports how many agents have touched the domain.
func (d *Domain) Agents() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.cached)
}
