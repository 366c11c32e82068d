package fabric

import "repro/internal/sim"

// Calibrated rates and latencies. Values follow the paper where it gives
// numbers (Sections 2.2, 5.1, 6.2) and public datasheets otherwise.
// Absolute values are model inputs; the experiments report ratios and
// crossovers, which depend on the relative magnitudes.
var (
	// DDRBandwidth is one DDR4-3200-class controller channel.
	DDRBandwidth = sim.Rate(25.6e9)
	// CoreMemBandwidth is what a single core sustains against that
	// controller: the paper cites 75-85% historically (Section 5.1);
	// we use 80%.
	CoreMemBandwidth = sim.Rate(0.8 * 25.6e9)
	// HBMBandwidth models an HBM-attached accelerator's privileged
	// memory path (Section 5.2).
	HBMBandwidth = sim.Rate(400e9)

	// PCIe generation bandwidths (x16, per direction). Section 6.2:
	// PCIe5 reaches 64 GB/s, doubling each generation.
	PCIeBandwidth = map[LinkKind]sim.Rate{
		LinkPCIe3: 16e9,
		LinkPCIe4: 32e9,
		LinkPCIe5: 64e9,
		LinkPCIe6: 128e9,
		LinkPCIe7: 256e9,
		LinkCXL:   64e9, // CXL 2.x rides PCIe5 electricals
	}

	// EthBandwidth maps NIC tiers to payload rates (Section 2.2:
	// 100 Gbps through the upcoming 1.6 Tbps).
	EthBandwidth = map[LinkKind]sim.Rate{
		LinkEth100:  sim.GbitPerSec(100),
		LinkEth200:  sim.GbitPerSec(200),
		LinkEth400:  sim.GbitPerSec(400),
		LinkEth800:  sim.GbitPerSec(800),
		LinkEth1600: sim.GbitPerSec(1600),
	}

	// NVMeBandwidth is a modern flash SSD's sequential read path.
	NVMeBandwidth = sim.Rate(7e9)
	// ObjectStoreBandwidth is a single object-store stream: slow disks
	// behind a network (Section 7.5), requiring parallelism for
	// reasonable throughput.
	ObjectStoreBandwidth = sim.Rate(0.5e9)
	// OnChipBandwidth is the cache/on-chip network path.
	OnChipBandwidth = sim.Rate(100e9)
)

// Link latencies.
var (
	DDRLatency    = 100 * sim.Nanosecond
	OnChipLatency = 10 * sim.Nanosecond
	PCIeLatency   = 500 * sim.Nanosecond
	CXLLatency    = 200 * sim.Nanosecond // "slightly higher latency" than local (Section 6.3)
	RDMALatency   = 2 * sim.Microsecond
	TCPLatency    = 30 * sim.Microsecond
	NVMeLatency   = 80 * sim.Microsecond
	ObjectLatency = 4 * sim.Millisecond
	// NVMeQueueDepth is how many outstanding commands the flash media
	// link services concurrently: command latency overlaps across the
	// queue (Account.TransferQD) while sequential bandwidth stays a serial
	// resource shared by every request.
	NVMeQueueDepth = 8
	NUMAExtra      = 60 * sim.Nanosecond // added when crossing sockets (Section 5.1)
	KernelSetupCPU = sim.VTime(0)        // CPUs run ISA code; no install step
	KernelSetupAcc = 5 * sim.Microsecond // register programming + logic install (Section 7.2)
)

// Device capability tables. Rates are streaming GB/s for the op on that
// device class. CPUs can do everything but at software rates; the
// accelerators do fewer things at line rate.
//
// CPU rates are per core against cache-resident data; the memory wall is
// modelled separately by the memdev package.
func cpuCaps() Capability {
	return Capability{
		OpScan:         8e9,
		OpFilter:       3e9,
		OpProject:      20e9,
		OpHash:         2.5e9,
		OpPartition:    2e9,
		OpPreAgg:       2e9,
		OpAggregate:    2e9,
		OpJoin:         1.2e9,
		OpSort:         0.8e9,
		OpCount:        10e9,
		OpCompress:     0.6e9,
		OpDecompress:   1.8e9,
		OpEncrypt:      2e9,
		OpDecrypt:      2e9,
		OpTranspose:    1.5e9,
		OpPointerChase: 0.1e9,
		OpListOps:      1e9,
		OpRegexMatch:   0.4e9,
	}
}

// smartSSDCaps: the in-storage processor streams at media rate but is
// deliberately narrow and (mostly) stateless (Section 3.3).
func smartSSDCaps() Capability {
	return Capability{
		OpScan:       NVMeBandwidth,
		OpFilter:     NVMeBandwidth,
		OpProject:    NVMeBandwidth,
		OpPreAgg:     4e9,
		OpCount:      NVMeBandwidth,
		OpDecompress: 5e9,
		OpRegexMatch: 6e9, // accelerators beat CPUs on regex (Section 3.3)
	}
}

// smartNICCaps: bump-in-the-wire processing at line rate (Section 4.3).
// The table is generated per NIC tier so faster NICs process faster.
func smartNICCaps(line sim.Rate) Capability {
	return Capability{
		OpFilter:     line,
		OpProject:    line,
		OpHash:       line,
		OpPartition:  line,
		OpPreAgg:     line / 2,
		OpCount:      line,
		OpCompress:   line / 4,
		OpDecompress: line / 2,
		OpEncrypt:    line,
		OpDecrypt:    line,
		OpJoin:       line / 4, // small-table joins only (Section 4.4)
	}
}

// nearMemoryCaps: the accelerator at the memory controller streams at
// full controller bandwidth (Section 5.2), unconstrained by the CPU's
// single-core ceiling.
func nearMemoryCaps() Capability {
	return Capability{
		OpFilter:       DDRBandwidth,
		OpProject:      DDRBandwidth,
		OpDecompress:   DDRBandwidth / 2,
		OpPreAgg:       DDRBandwidth / 2,
		OpCount:        DDRBandwidth,
		OpPointerChase: 2e9,
		OpTranspose:    DDRBandwidth / 2,
		OpListOps:      DDRBandwidth / 4,
	}
}

// switchCaps: programmable switches forward at line rate and can count
// and partition (Section 2: programmable switches).
func switchCaps(line sim.Rate) Capability {
	return Capability{
		OpCount:     line,
		OpPartition: line,
	}
}

// Default device parallelism. These count replicated processing units a
// single query stream cannot saturate alone: SSD compute engines over
// the flash channels, packet pipelines on a DPU, functional units at
// the memory controller. The passive resources next to them (media,
// wires, switches) stay serial, so lane-divided device busy is always
// floored by the honest aggregate bandwidth of the path — that floor is
// where worker scaling flattens.
const (
	SmartSSDUnits   = 4
	SmartNICUnits   = 4
	NearMemoryUnits = 2
)

// NewCPU builds a CPU device with the given number of cores. Rates scale
// with cores up to the memory-bandwidth ceiling handled by memdev, and
// Parallelism mirrors the core count so worker pools size themselves to
// the hardware.
func NewCPU(name string, cores int) *Device {
	caps := cpuCaps()
	for op, r := range caps {
		caps[op] = r * sim.Rate(cores)
	}
	return &Device{Name: name, Kind: KindCPU, Caps: caps, KernelSetup: KernelSetupCPU, Parallelism: cores}
}

// NewSmartSSD builds an in-storage processor with a bounded state budget.
func NewSmartSSD(name string) *Device {
	return &Device{
		Name: name, Kind: KindSmartSSD, Caps: smartSSDCaps(),
		KernelSetup: KernelSetupAcc, StateBudget: 64 * sim.MB,
		Parallelism: SmartSSDUnits,
	}
}

// NewSmartNIC builds a NIC/DPU processing at the given line rate.
func NewSmartNIC(name string, line sim.Rate) *Device {
	return &Device{
		Name: name, Kind: KindSmartNIC, Caps: smartNICCaps(line),
		KernelSetup: KernelSetupAcc, StateBudget: 256 * sim.MB,
		Parallelism: SmartNICUnits,
	}
}

// NewNearMemoryAccel builds a near-memory accelerator.
func NewNearMemoryAccel(name string) *Device {
	return &Device{
		Name: name, Kind: KindNearMemory, Caps: nearMemoryCaps(),
		KernelSetup: KernelSetupAcc, StateBudget: 32 * sim.MB,
		Parallelism: NearMemoryUnits,
	}
}

// NewSwitch builds a programmable switch.
func NewSwitch(name string, line sim.Rate) *Device {
	return &Device{
		Name: name, Kind: KindSwitch, Caps: switchCaps(line),
		KernelSetup: KernelSetupAcc, StateBudget: 16 * sim.MB,
	}
}

// NewMemory builds a passive DRAM device (no compute capabilities).
func NewMemory(name string) *Device {
	return &Device{Name: name, Kind: KindMemory, Caps: Capability{}}
}

// NewStorageMedia builds passive storage media.
func NewStorageMedia(name string) *Device {
	return &Device{Name: name, Kind: KindStorage, Caps: Capability{OpScan: NVMeBandwidth}}
}
