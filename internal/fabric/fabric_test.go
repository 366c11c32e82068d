package fabric

import (
	"context"
	"strings"
	"testing"

	"repro/internal/sim"
)

func TestDeviceChargeAndMeter(t *testing.T) {
	d := NewCPU("cpu0", 1)
	n := sim.Bytes(3e9) // filter rate is 3 GB/s per core
	took := d.Charge(OpFilter, n)
	if took != sim.Second {
		t.Errorf("Charge time = %v, want 1s", took)
	}
	if d.Meter.Bytes() != n || d.Meter.Ops() != 1 {
		t.Errorf("meter = %+v", d.Meter.Snapshot())
	}
}

func TestDeviceCoreScaling(t *testing.T) {
	one := NewCPU("c1", 1)
	four := NewCPU("c4", 4)
	if four.RateFor(OpJoin) != 4*one.RateFor(OpJoin) {
		t.Errorf("4-core join rate %v != 4x 1-core %v", four.RateFor(OpJoin), one.RateFor(OpJoin))
	}
}

func TestDeviceChargeUnsupportedPanics(t *testing.T) {
	d := NewSwitch("sw", sim.GbitPerSec(100))
	defer func() {
		if recover() == nil {
			t.Fatal("Charge(OpJoin) on a switch did not panic")
		}
	}()
	d.Charge(OpJoin, 100)
}

func TestDeviceCapabilities(t *testing.T) {
	ssd := NewSmartSSD("ssd")
	if !ssd.Can(OpFilter) || !ssd.Can(OpProject) || !ssd.Can(OpRegexMatch) {
		t.Error("smart SSD missing expected capabilities")
	}
	if ssd.Can(OpJoin) || ssd.Can(OpSort) {
		t.Error("smart SSD should not support stateful join/sort")
	}
	cpu := NewCPU("cpu", 8)
	for op := OpClass(0); op < numOpClasses; op++ {
		if !cpu.Can(op) {
			t.Errorf("CPU missing op %v", op)
		}
	}
	list := ssd.CapabilityList()
	for i := 1; i < len(list); i++ {
		if list[i-1] >= list[i] {
			t.Error("CapabilityList not sorted")
		}
	}
}

func TestLinkTransferAndRateLimit(t *testing.T) {
	l := &Link{Name: "l", A: "a", B: "b", Bandwidth: sim.GBPerSec, Latency: sim.Millisecond}
	took := l.Transfer(sim.Bytes(1e9))
	if took != sim.Second+sim.Millisecond {
		t.Errorf("Transfer = %v, want 1.001s", took)
	}
	l.SetRateLimit(sim.GBPerSec / 2)
	if l.EffectiveBandwidth() != sim.GBPerSec/2 {
		t.Errorf("EffectiveBandwidth = %v after limit", l.EffectiveBandwidth())
	}
	took = l.Transfer(sim.Bytes(1e9))
	if took != 2*sim.Second+sim.Millisecond {
		t.Errorf("limited Transfer = %v, want 2.001s", took)
	}
	l.SetRateLimit(0)
	if l.EffectiveBandwidth() != sim.GBPerSec {
		t.Error("removing limit did not restore bandwidth")
	}
	// A limit above physical bandwidth is ignored.
	l.SetRateLimit(10 * sim.GBPerSec)
	if l.EffectiveBandwidth() != sim.GBPerSec {
		t.Error("overlarge limit raised bandwidth")
	}
}

func TestLinkMessage(t *testing.T) {
	l := &Link{Name: "l", A: "a", B: "b", Bandwidth: sim.GBPerSec, Latency: 5 * sim.Microsecond}
	l.Message()
	l.Message()
	if l.Meter.Messages() != 2 {
		t.Errorf("Messages = %d, want 2", l.Meter.Messages())
	}
	if l.Meter.Bytes() != 0 {
		t.Error("control messages charged payload bytes")
	}
}

func TestLinkOther(t *testing.T) {
	l := &Link{A: "x", B: "y"}
	if l.Other("x") != "y" || l.Other("y") != "x" || l.Other("z") != "" {
		t.Error("Other endpoint resolution wrong")
	}
}

func TestTopologyPathAndTransfer(t *testing.T) {
	top := NewConventionalServer()
	path, err := top.Path(DevDisk, DevCPU)
	if err != nil {
		t.Fatal(err)
	}
	if len(path) != 3 {
		t.Fatalf("path disk->cpu has %d hops, want 3", len(path))
	}
	// Moving 1 GB charges all three links.
	if _, err := top.Transfer(context.Background(), DevDisk, DevCPU, sim.GB); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"disk--dram", "dram--llc", "llc--cpu"} {
		l := top.Link(name)
		if l == nil {
			t.Fatalf("missing link %s; have %v", name, top.LinkBytes())
		}
		if l.Meter.Bytes() != sim.GB {
			t.Errorf("link %s carried %v, want 1GiB", name, l.Meter.Bytes())
		}
	}
	if got := top.LinkBytes(); len(got) != 3 {
		t.Errorf("LinkBytes = %v, want only the three path links", got)
	}
}

func TestTopologyPathErrors(t *testing.T) {
	top := NewTopology("t")
	top.AddDevice(NewMemory("a"))
	top.AddDevice(NewMemory("b")) // disconnected
	if _, err := top.Path("a", "b"); err == nil {
		t.Error("Path between disconnected devices succeeded")
	}
	if _, err := top.Path("a", "nope"); err == nil {
		t.Error("Path to unknown device succeeded")
	}
	if p, err := top.Path("a", "a"); err != nil || len(p) != 0 {
		t.Error("Path a->a should be empty and error-free")
	}
}

func TestTopologyDuplicateDevicePanics(t *testing.T) {
	top := NewTopology("t")
	top.AddDevice(NewMemory("a"))
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate AddDevice did not panic")
		}
	}()
	top.AddDevice(NewMemory("a"))
}

func TestTopologyResetMeters(t *testing.T) {
	top := NewConventionalServer()
	if _, err := top.Transfer(context.Background(), DevDisk, DevCPU, sim.MB); err != nil {
		t.Fatal(err)
	}
	top.MustDevice(DevCPU).Charge(OpFilter, sim.MB)
	top.ResetMeters()
	if len(top.LinkBytes()) != 0 {
		t.Error("ResetMeters left link bytes")
	}
	if top.MustDevice(DevCPU).Meter.Bytes() != 0 {
		t.Error("ResetMeters left device bytes")
	}
}

func TestClusterDefaultShape(t *testing.T) {
	c := NewCluster(DefaultClusterConfig())
	// All well-known devices exist.
	for _, name := range []string{
		DevStorageMed, DevStorageProc, DevStorageNIC, DevSwitch,
		DevMemNode, DevMemNIC,
		ComputeDev(0, "cpu"), ComputeDev(0, "dram"), ComputeDev(0, "nic"), ComputeDev(0, "nma"),
		ComputeDev(1, "cpu"),
	} {
		if c.Device(name) == nil {
			t.Errorf("missing device %s", name)
		}
	}
	// Smart devices have their offload capabilities.
	if !c.StorageProc().Can(OpFilter) {
		t.Error("smart storage cannot filter")
	}
	if !c.ComputeNIC(0).Can(OpHash) {
		t.Error("smart NIC cannot hash")
	}
	if c.NearMem(0) == nil || !c.NearMem(0).Can(OpPointerChase) {
		t.Error("near-memory accelerator missing or incapable")
	}
	// Storage reaches every compute CPU.
	for i := 0; i < 2; i++ {
		if _, err := c.Path(DevStorageMed, ComputeDev(i, "cpu")); err != nil {
			t.Errorf("no path storage -> compute%d: %v", i, err)
		}
	}
}

func TestClusterLegacyIsDumb(t *testing.T) {
	c := NewCluster(LegacyClusterConfig())
	if c.StorageProc().Can(OpFilter) {
		t.Error("legacy storage proc can filter; want scan-only")
	}
	if c.ComputeNIC(0).Can(OpHash) {
		t.Error("legacy NIC can hash; want dumb")
	}
	if c.NearMem(0) != nil {
		t.Error("legacy cluster has a near-memory accelerator")
	}
	// Legacy DRAM->CPU runs at the single-core-limited rate.
	l := c.LinkBetween(ComputeDev(0, "dram"), ComputeDev(0, "cpu"))
	if l == nil {
		t.Fatal("no dram--cpu link")
	}
	if l.Bandwidth != CoreMemBandwidth {
		t.Errorf("legacy dram--cpu bandwidth = %v, want %v", l.Bandwidth, CoreMemBandwidth)
	}
}

func TestClusterConfigValidation(t *testing.T) {
	cfg := DefaultClusterConfig()
	cfg.ComputeNodes = 0
	cfg.CPUCores = 0
	c := NewCluster(cfg) // clamped to 1/1, not panic
	if c.ComputeCPU(0) == nil {
		t.Fatal("clamped cluster missing compute0.cpu")
	}
	bad := DefaultClusterConfig()
	bad.NICTier = LinkDDR
	defer func() {
		if recover() == nil {
			t.Fatal("NICTier=ddr did not panic")
		}
	}()
	NewCluster(bad)
}

func TestClusterNICTierScalesBandwidth(t *testing.T) {
	slow := NewCluster(func() ClusterConfig {
		c := DefaultClusterConfig()
		c.NICTier = LinkEth100
		return c
	}())
	fast := NewCluster(func() ClusterConfig {
		c := DefaultClusterConfig()
		c.NICTier = LinkEth800
		return c
	}())
	ls := slow.LinkBetween(DevStorageNIC, DevSwitch)
	lf := fast.LinkBetween(DevStorageNIC, DevSwitch)
	if lf.Bandwidth != 8*ls.Bandwidth {
		t.Errorf("800G (%v) != 8x 100G (%v)", lf.Bandwidth, ls.Bandwidth)
	}
	// Smart NIC processing rate scales with the tier too.
	if fast.StorageNIC().RateFor(OpHash) != 8*slow.StorageNIC().RateFor(OpHash) {
		t.Error("NIC op rate does not scale with line rate")
	}
}

func TestTopologyString(t *testing.T) {
	s := NewConventionalServer().String()
	for _, want := range []string{"conventional-server", "disk", "cpu", "ddr"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q:\n%s", want, s)
		}
	}
}

func TestOpClassStrings(t *testing.T) {
	for op := OpClass(0); op < numOpClasses; op++ {
		if strings.HasPrefix(op.String(), "OpClass(") {
			t.Errorf("op %d has no name", op)
		}
	}
	if OpClass(250).String() == "" {
		t.Error("unknown op class produced empty string")
	}
}

func TestKindStrings(t *testing.T) {
	kinds := []DeviceKind{KindCPU, KindSmartSSD, KindSmartNIC, KindNearMemory, KindSwitch, KindDMA, KindMemory, KindStorage}
	for _, k := range kinds {
		if strings.HasPrefix(k.String(), "DeviceKind(") {
			t.Errorf("kind %d has no name", k)
		}
	}
	links := []LinkKind{LinkDDR, LinkPCIe3, LinkPCIe7, LinkCXL, LinkEth1600, LinkNVMe, LinkOnChip, LinkObject}
	for _, k := range links {
		if strings.HasPrefix(k.String(), "LinkKind(") {
			t.Errorf("link kind %d has no name", k)
		}
	}
}
