package fabric

import (
	"fmt"
	"sync"

	"repro/internal/sim"
)

// LinkKind classifies interconnect technologies, following the paper's
// Sections 2.2 (networking tiers), 5.1 (DDR) and 6 (PCIe/CXL
// generations).
type LinkKind uint8

// Link kinds.
const (
	LinkDDR LinkKind = iota
	LinkPCIe3
	LinkPCIe4
	LinkPCIe5
	LinkPCIe6
	LinkPCIe7
	LinkCXL // CXL 2.x over PCIe5 electricals, hardware coherency
	LinkEth100
	LinkEth200
	LinkEth400
	LinkEth800
	LinkEth1600
	LinkNVMe   // SSD internal media path
	LinkOnChip // cache hierarchy / on-chip network
	LinkObject // cloud object-store access path (slow, high latency)
)

// String names the link kind.
func (k LinkKind) String() string {
	names := [...]string{
		"ddr", "pcie3", "pcie4", "pcie5", "pcie6", "pcie7", "cxl",
		"eth100", "eth200", "eth400", "eth800", "eth1600", "nvme",
		"onchip", "object",
	}
	if int(k) < len(names) {
		return names[k]
	}
	return fmt.Sprintf("LinkKind(%d)", uint8(k))
}

// Link is a bidirectional connection between two named devices.
// Transfers charge latency plus bytes/bandwidth; an optional rate limit
// (set by the scheduler, Section 7.3) caps effective bandwidth.
type Link struct {
	Name      string
	Kind      LinkKind
	A, B      string // endpoint device names
	Bandwidth sim.Rate
	Latency   sim.VTime
	// Parallelism is the number of independent channels the link can
	// drive concurrently (flash channels on the SSD-internal media path,
	// DMA queues on a host bus). Zero or one models a serial wire —
	// network links stay serial, which is what makes scan scaling
	// flatten once the wire saturates.
	Parallelism int
	Meter       sim.Meter

	index int // position in its topology's link list (Account)
	mu    sync.Mutex
	limit sim.Rate // 0 = unlimited
	fault func() error
}

// SetFaultCheck installs a hook consulted once per data transfer; a
// non-nil return models a link-level fault (flap, CRC storm) and aborts
// the transfer. Fault injection binds faults.Injector here; pass nil to
// remove the hook.
func (l *Link) SetFaultCheck(f func() error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.fault = f
}

// CheckFault reports the link's current injected fault, if any.
func (l *Link) CheckFault() error {
	l.mu.Lock()
	f := l.fault
	l.mu.Unlock()
	if f == nil {
		return nil
	}
	return f()
}

// SetRateLimit caps the effective bandwidth used for future transfers.
// Pass 0 to remove the limit. This models DMA-engine rate limiting
// (Section 7.3: "the scheduler should be able to rate limit the
// bandwidth used").
func (l *Link) SetRateLimit(r sim.Rate) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.limit = r
}

// EffectiveBandwidth reports the bandwidth transfers currently see.
func (l *Link) EffectiveBandwidth() sim.Rate {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.limit > 0 && l.limit < l.Bandwidth {
		return l.limit
	}
	return l.Bandwidth
}

// Transfer accounts for moving n payload bytes across the link and
// returns the virtual time it took.
func (l *Link) Transfer(n sim.Bytes) sim.VTime {
	t := l.Latency + l.EffectiveBandwidth().TimeFor(n)
	l.Meter.Add(sim.Snapshot{Bytes: n, Busy: t, Ops: 1})
	return t
}

// Units reports the link's effective channel parallelism, never less
// than 1.
func (l *Link) Units() int {
	if l.Parallelism > 1 {
		return l.Parallelism
	}
	return 1
}

// Message accounts for one small control message (credit grant,
// coherency invalidation) crossing the link. Control messages cost one
// latency and are counted separately from payload bytes.
func (l *Link) Message() sim.VTime {
	l.Meter.Add(sim.Snapshot{Busy: l.Latency, Messages: 1})
	return l.Latency
}

// Other returns the endpoint opposite to name, or "" if name is not an
// endpoint.
func (l *Link) Other(name string) string {
	switch name {
	case l.A:
		return l.B
	case l.B:
		return l.A
	}
	return ""
}

// String renders the link as "name: A<->B kind bw".
func (l *Link) String() string {
	return fmt.Sprintf("%s: %s<->%s %s %s", l.Name, l.A, l.B, l.Kind, l.Bandwidth)
}
