package fabric

import (
	"errors"
	"fmt"
	"sort"
	"sync/atomic"

	"repro/internal/sim"
)

// ErrDeviceOffline is surfaced when a pipeline stage is placed on a
// device that has gone offline (lost power, dropped its kernel). The
// engine reacts by re-enumerating placements without the device.
var ErrDeviceOffline = errors.New("fabric: device offline")

// DeviceKind classifies the processing elements of the fabric.
type DeviceKind uint8

// Device kinds, following the paper's inventory of processing
// opportunities along the data path.
const (
	KindCPU        DeviceKind = iota // general-purpose cores (can do everything)
	KindSmartSSD                     // in-storage processor (Section 3)
	KindSmartNIC                     // NIC/DPU bump-in-the-wire (Section 4)
	KindNearMemory                   // near-memory accelerator (Section 5)
	KindSwitch                       // programmable switch
	KindDMA                          // DMA engine (moves, never computes)
	KindMemory                       // plain DRAM module / memory node
	KindStorage                      // plain storage media
)

// String names the kind.
func (k DeviceKind) String() string {
	names := [...]string{
		"cpu", "smart-ssd", "smart-nic", "near-memory", "switch",
		"dma", "memory", "storage",
	}
	if int(k) < len(names) {
		return names[k]
	}
	return fmt.Sprintf("DeviceKind(%d)", uint8(k))
}

// Capability maps op classes to the streaming rate at which a device
// executes them. Absence means the device cannot host that op.
type Capability map[OpClass]sim.Rate

// Device is one processing element. Its meter accumulates bytes processed
// and virtual busy time; experiments read the meters to report who did
// the work.
type Device struct {
	Name string
	Kind DeviceKind
	Caps Capability
	// KernelSetup is the fixed virtual-time cost of installing a kernel
	// or programming the device's registers before a stream starts
	// (paper Section 7.2: accelerators are programmed via memory-mapped
	// registers plus installed logic, not an ISA).
	KernelSetup sim.VTime
	// StateBudget bounds the scratch memory available to pipeline stages
	// placed on this device (paper Section 3.3: in-path processing must
	// be mostly stateless). Zero means unbounded (CPUs).
	StateBudget sim.Bytes
	// Parallelism is the number of concurrent processing units the
	// device exposes: cores on a CPU, flash channels behind an SSD
	// processor, packet pipelines on a NIC. Worker pools size themselves
	// by it, and lane-charged work on distinct units overlaps in virtual
	// time. Zero or one means strictly serial.
	Parallelism int
	Meter       sim.Meter

	index   int // position in its topology's device list (Account)
	offline atomic.Bool
}

// SetOffline marks the device dead (true) or restored (false). An
// offline device cannot host pipeline stages: the planner skips it when
// enumerating placements and the flow runtime fails any stage already
// placed on it, triggering engine-level failover. Links still forward
// through it — a dead kernel does not stop the bump-in-the-wire path.
func (d *Device) SetOffline(v bool) { d.offline.Store(v) }

// IsOffline reports whether the device is currently offline.
func (d *Device) IsOffline() bool { return d.offline.Load() }

// Can reports whether the device supports the op class.
func (d *Device) Can(op OpClass) bool {
	_, ok := d.Caps[op]
	return ok
}

// RateFor returns the device's streaming rate for op, or 0 if
// unsupported.
func (d *Device) RateFor(op OpClass) sim.Rate { return d.Caps[op] }

// Charge accounts for streaming n bytes through op on this device and
// returns the virtual time it took. Charging an unsupported op is a
// planner bug and panics.
func (d *Device) Charge(op OpClass, n sim.Bytes) sim.VTime {
	rate, ok := d.Caps[op]
	if !ok {
		panic(fmt.Sprintf("fabric: device %s (%s) cannot execute %s", d.Name, d.Kind, op))
	}
	t := rate.TimeFor(n)
	d.Meter.Add(sim.Snapshot{Bytes: n, Busy: t, Ops: 1})
	return t
}

// Units reports the device's effective parallelism, never less than 1.
func (d *Device) Units() int {
	if d.Parallelism > 1 {
		return d.Parallelism
	}
	return 1
}

// ChargeSetup accounts for one kernel installation on the device and
// returns its cost.
func (d *Device) ChargeSetup() sim.VTime {
	d.Meter.AddBusy(d.KernelSetup)
	return d.KernelSetup
}

// CapabilityList returns the supported op classes sorted by name, for
// stable display.
func (d *Device) CapabilityList() []OpClass {
	ops := make([]OpClass, 0, len(d.Caps))
	for op := range d.Caps {
		ops = append(ops, op)
	}
	sort.Slice(ops, func(i, j int) bool { return ops[i] < ops[j] })
	return ops
}

// String renders the device as "name(kind)".
func (d *Device) String() string { return fmt.Sprintf("%s(%s)", d.Name, d.Kind) }
