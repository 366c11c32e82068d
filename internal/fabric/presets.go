package fabric

import (
	"fmt"

	"repro/internal/sim"
)

// Well-known device names used by the preset topologies. Higher layers
// (planner, engine) reference devices by these names.
const (
	DevDisk        = "disk"
	DevDRAM        = "dram"
	DevLLC         = "llc"
	DevCPU         = "cpu"
	DevStorageMed  = "storage.media"
	DevStorageProc = "storage.proc"
	DevStorageNIC  = "storage.nic"
	DevSwitch      = "switch"
	DevMemNode     = "mem.dram"
	DevMemNIC      = "mem.nic"
)

// ComputeDev names the per-compute-node device dev on node i
// (e.g. ComputeDev(0, "cpu") == "compute0.cpu").
func ComputeDev(i int, dev string) string {
	return fmt.Sprintf("compute%d.%s", i, dev)
}

// NewConventionalServer builds the Figure 1 machine: the von Neumann
// data path disk <-> memory <-> caches <-> CPU, with nothing smart
// anywhere. Used by experiment E1 as the legacy baseline.
func NewConventionalServer() *Topology {
	t := NewTopology("conventional-server")
	t.AddDevice(NewStorageMedia(DevDisk))
	t.AddDevice(NewMemory(DevDRAM))
	t.AddDevice(NewMemory(DevLLC))
	t.AddDevice(NewCPU(DevCPU, 8))
	t.Connect(DevDisk, DevDRAM, LinkPCIe4, PCIeBandwidth[LinkPCIe4], NVMeLatency)
	t.Connect(DevDRAM, DevLLC, LinkDDR, DDRBandwidth, DDRLatency)
	t.Connect(DevLLC, DevCPU, LinkOnChip, OnChipBandwidth, OnChipLatency)
	return t
}

// ClusterConfig parameterizes the disaggregated topology of Figure 6.
type ClusterConfig struct {
	// ComputeNodes is the number of compute nodes attached to the
	// switch; Figure 4's scattering pipeline needs more than one.
	ComputeNodes int
	// CPUCores is the core count of each compute node's CPU.
	CPUCores int
	// NICTier selects the Ethernet generation of every NIC.
	NICTier LinkKind
	// HostBus selects the NIC<->memory bus on compute nodes
	// (a PCIe generation or LinkCXL).
	HostBus LinkKind
	// SmartStorage enables the in-storage processor's offload
	// capabilities. When false the device exists but can only scan,
	// modelling a dumb storage server that must ship everything.
	SmartStorage bool
	// SmartNICs enables bump-in-the-wire processing on all NICs.
	SmartNICs bool
	// NearMemory interposes a near-memory accelerator between each
	// compute node's DRAM and its CPU.
	NearMemory bool
	// MemoryNode attaches a disaggregated memory node to the switch.
	MemoryNode bool
}

// DefaultClusterConfig is the full Figure 6 fabric: one storage node, one
// memory node, two compute nodes, everything smart, 400G network, CXL
// host bus.
func DefaultClusterConfig() ClusterConfig {
	return ClusterConfig{
		ComputeNodes: 2,
		CPUCores:     8,
		NICTier:      LinkEth400,
		HostBus:      LinkCXL,
		SmartStorage: true,
		SmartNICs:    true,
		NearMemory:   true,
		MemoryNode:   true,
	}
}

// LegacyClusterConfig is the same physical fabric with every smart
// capability turned off: the CPU-centric baseline the paper argues
// against.
func LegacyClusterConfig() ClusterConfig {
	cfg := DefaultClusterConfig()
	cfg.SmartStorage = false
	cfg.SmartNICs = false
	cfg.NearMemory = false
	cfg.HostBus = LinkPCIe4
	return cfg
}

// Cluster is a disaggregated topology with accessors for its well-known
// devices.
type Cluster struct {
	*Topology
	Cfg ClusterConfig
}

// NewCluster builds the Figure 6 topology for the given configuration.
func NewCluster(cfg ClusterConfig) *Cluster {
	if cfg.ComputeNodes < 1 {
		cfg.ComputeNodes = 1
	}
	if cfg.CPUCores < 1 {
		cfg.CPUCores = 1
	}
	ethBW, ok := EthBandwidth[cfg.NICTier]
	if !ok {
		panic(fmt.Sprintf("fabric: NICTier %v is not an Ethernet tier", cfg.NICTier))
	}
	busBW, ok := PCIeBandwidth[cfg.HostBus]
	if !ok {
		panic(fmt.Sprintf("fabric: HostBus %v is not a PCIe/CXL kind", cfg.HostBus))
	}
	busLat := PCIeLatency
	if cfg.HostBus == LinkCXL {
		busLat = CXLLatency
	}

	t := NewTopology(fmt.Sprintf("cluster-%dc", cfg.ComputeNodes))

	// Storage node.
	t.AddDevice(NewStorageMedia(DevStorageMed))
	proc := NewSmartSSD(DevStorageProc)
	if !cfg.SmartStorage {
		// A dumb storage server can only read, decode (for error
		// checking, as Section 2.1 notes every storage system must)
		// and ship.
		proc.Caps = Capability{OpScan: NVMeBandwidth, OpDecompress: 5e9}
		proc.KernelSetup = 0
	}
	t.AddDevice(proc)
	t.AddDevice(newNIC(DevStorageNIC, ethBW, cfg.SmartNICs))
	t.Connect(DevStorageMed, DevStorageProc, LinkNVMe, NVMeBandwidth, NVMeLatency).Parallelism = NVMeQueueDepth
	t.Connect(DevStorageProc, DevStorageNIC, LinkPCIe5, PCIeBandwidth[LinkPCIe5], PCIeLatency)

	// Switch.
	t.AddDevice(NewSwitch(DevSwitch, ethBW))
	t.Connect(DevStorageNIC, DevSwitch, cfg.NICTier, ethBW, RDMALatency)

	// Compute nodes.
	for i := 0; i < cfg.ComputeNodes; i++ {
		nic := ComputeDev(i, "nic")
		dram := ComputeDev(i, "dram")
		cpu := ComputeDev(i, "cpu")
		t.AddDevice(newNIC(nic, ethBW, cfg.SmartNICs))
		t.AddDevice(NewMemory(dram))
		t.AddDevice(NewCPU(cpu, cfg.CPUCores))
		t.Connect(DevSwitch, nic, cfg.NICTier, ethBW, RDMALatency)
		t.Connect(nic, dram, cfg.HostBus, busBW, busLat)
		if cfg.NearMemory {
			nma := ComputeDev(i, "nma")
			t.AddDevice(NewNearMemoryAccel(nma))
			t.Connect(dram, nma, LinkDDR, DDRBandwidth, DDRLatency)
			t.Connect(nma, cpu, LinkOnChip, OnChipBandwidth, OnChipLatency)
		} else {
			// Without an accelerator the CPU pulls at its single-core-
			// limited share of controller bandwidth (Section 5.1).
			t.Connect(dram, cpu, LinkDDR, CoreMemBandwidth, DDRLatency)
		}
	}

	// Disaggregated memory node.
	if cfg.MemoryNode {
		t.AddDevice(NewMemory(DevMemNode))
		t.AddDevice(newNIC(DevMemNIC, ethBW, cfg.SmartNICs))
		t.Connect(DevMemNode, DevMemNIC, LinkDDR, DDRBandwidth, DDRLatency)
		t.Connect(DevMemNIC, DevSwitch, cfg.NICTier, ethBW, RDMALatency)
	}

	return &Cluster{Topology: t, Cfg: cfg}
}

func newNIC(name string, line sim.Rate, smart bool) *Device {
	nic := NewSmartNIC(name, line)
	if !smart {
		// A dumb NIC only moves bytes; it cannot host stages.
		nic.Caps = Capability{}
		nic.KernelSetup = 0
	}
	return nic
}

// StorageProc returns the storage node's processor.
func (c *Cluster) StorageProc() *Device { return c.MustDevice(DevStorageProc) }

// StorageNIC returns the storage node's NIC.
func (c *Cluster) StorageNIC() *Device { return c.MustDevice(DevStorageNIC) }

// ComputeNIC returns compute node i's NIC.
func (c *Cluster) ComputeNIC(i int) *Device { return c.MustDevice(ComputeDev(i, "nic")) }

// ComputeCPU returns compute node i's CPU.
func (c *Cluster) ComputeCPU(i int) *Device { return c.MustDevice(ComputeDev(i, "cpu")) }

// NearMem returns compute node i's near-memory accelerator, or nil when
// the configuration has none.
func (c *Cluster) NearMem(i int) *Device { return c.Device(ComputeDev(i, "nma")) }
