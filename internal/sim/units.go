// Package sim provides the base units, metering, and deterministic
// randomness shared by every simulated hardware component in this
// repository.
//
// The simulation style used throughout is cost accounting over real
// computation: operators really process real tuples, while the fabric
// records how many bytes crossed each link and how long each device was
// busy in virtual time. Virtual time is derived analytically from
// calibrated device/link rates, which keeps experiments deterministic and
// independent of the host machine.
package sim

import (
	"fmt"
	"time"
)

// VTime is a duration of virtual (simulated) time in nanoseconds.
// It is intentionally distinct from time.Duration so that wall-clock and
// simulated durations cannot be mixed by accident.
type VTime int64

// Common virtual-time units.
const (
	Nanosecond  VTime = 1
	Microsecond       = 1000 * Nanosecond
	Millisecond       = 1000 * Microsecond
	Second            = 1000 * Millisecond
)

// Duration converts a virtual time to a time.Duration with the same
// nanosecond count, for printing.
func (t VTime) Duration() time.Duration { return time.Duration(t) }

// Seconds reports the virtual time in seconds as a float.
func (t VTime) Seconds() float64 { return float64(t) / float64(Second) }

// String formats the virtual time like a time.Duration.
func (t VTime) String() string { return t.Duration().String() }

// Bytes is a byte count. A dedicated type keeps signatures honest about
// whether a quantity is a size or something else.
type Bytes int64

// Common byte units.
const (
	B  Bytes = 1
	KB       = 1 << 10 * B
	MB       = 1 << 20 * B
	GB       = 1 << 30 * B
)

// String renders a byte count using binary units with two decimals.
func (b Bytes) String() string {
	switch {
	case b >= GB:
		return fmt.Sprintf("%.2fGiB", float64(b)/float64(GB))
	case b >= MB:
		return fmt.Sprintf("%.2fMiB", float64(b)/float64(MB))
	case b >= KB:
		return fmt.Sprintf("%.2fKiB", float64(b)/float64(KB))
	}
	return fmt.Sprintf("%dB", int64(b))
}

// Rate is a throughput in bytes per second of virtual time.
type Rate float64

// Common rates. Network rates follow the paper's Section 2.2 (100 Gb/s to
// 1.6 Tb/s NICs); memory and PCIe rates follow Sections 5.1 and 6.2.
const (
	BytePerSec Rate = 1
	GBPerSec        = 1e9 * BytePerSec
)

// GbitPerSec converts a link speed quoted in gigabits per second (the
// usual unit for NICs and switches) into a Rate.
func GbitPerSec(g float64) Rate { return Rate(g * 1e9 / 8) }

// String renders the rate in GB/s.
func (r Rate) String() string { return fmt.Sprintf("%.2fGB/s", float64(r)/1e9) }

// TimeFor reports how long moving or processing n bytes takes at rate r.
// A zero or negative rate is treated as infinitely fast (zero time): it is
// used for modelling steps whose cost the experiment deliberately ignores.
func (r Rate) TimeFor(n Bytes) VTime {
	if r <= 0 || n <= 0 {
		return 0
	}
	return VTime(float64(n) / float64(r) * float64(Second))
}
