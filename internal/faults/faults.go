// Package faults implements deterministic fault injection for the
// simulated fabric. The paper's runtime (Section 7) spreads a query over
// many active devices — smart SSDs, NICs, near-memory units — which
// multiplies the failure surface: a device can drop an installed kernel,
// a link can flap, a storage read can fail transiently or return a
// corrupted blob. The Injector arms such fault points with per-point
// probability and budget; every point draws from its own seeded
// sim.RNG stream, so the same seed and the same per-point sequence of
// matching checks always yields the byte-identical fault schedule —
// even when checks of different points interleave nondeterministically
// across goroutines (a pipeline stage probing its device while the scan
// probes storage reads). Experiments (E19) sweep the fault rate; the
// recovery machinery in storage, flow, sched and core turns the
// injected faults into retries, replica fallbacks and plan failovers
// instead of query errors.
package faults

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/sim"
)

// Kind classifies an injectable fault.
type Kind uint8

// Fault kinds, ordered roughly by where on the data path they strike.
const (
	// TransientRead is a storage read that fails once and succeeds on
	// retry (media hiccup, momentary congestion).
	TransientRead Kind = iota
	// CorruptBlob flips a byte in the data returned by one storage read;
	// checksums catch it downstream and a re-read recovers.
	CorruptBlob
	// ObjectMissing makes one storage read report the object absent (a
	// flaky metadata lookup); other replicas or a retry recover.
	ObjectMissing
	// DeviceOffline drops the kernel installed on a device mid-query;
	// the engine must fail over to a placement that avoids the device.
	DeviceOffline
	// LinkFlap fails one data transfer on a fabric link; re-executing
	// the query recovers.
	LinkFlap
	// DegradedDevice is a gray failure: the target keeps serving but
	// every matching operation runs Severity times slower. Nothing ever
	// errors, so only tail-latency defenses (hedging, speculation)
	// mitigate it.
	DegradedDevice
	// JitterLink adds Severity x the base latency to matching transfers
	// on a fabric link — a congested or flapping-PHY link that still
	// delivers every payload.
	JitterLink
	// StickyCorrupt persistently damages the stored replica blob the
	// first time a matching read touches it: unlike CorruptBlob, every
	// subsequent read of that replica returns the same damaged bytes
	// until a repair overwrites them. Retrying the same replica cannot
	// help, so the kind is classified permanent; only another replica
	// (route-around) or the repair controller (heal) recovers.
	StickyCorrupt
)

// String names the kind.
func (k Kind) String() string {
	names := [...]string{
		"transient-read", "corrupt-blob", "object-missing",
		"device-offline", "link-flap", "degraded-device",
		"jitter-link", "sticky-corrupt",
	}
	if int(k) < len(names) {
		return names[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Point arms one fault class. A point fires on a matching check with
// probability Prob until its Budget is exhausted.
type Point struct {
	Kind Kind
	// Target restricts the point to checks whose target has this prefix
	// (a device name, link name or object-key prefix); "" matches any.
	Target string
	// Prob is the per-check fire probability in [0, 1].
	Prob float64
	// Budget caps the total fires; 0 means unlimited.
	Budget int
	// After makes the point pass its first After matching checks without
	// firing (or consuming randomness): a deterministic way to strike
	// mid-stream — e.g. after a checkpoint epoch has completed — instead
	// of on the first batch. 0 means eligible immediately.
	After int
	// Severity scales gray-failure kinds: a DegradedDevice fire makes
	// the operation take Severity x its base latency; a JitterLink fire
	// adds Severity x the base latency on top. Ignored by the
	// error-injecting kinds. Values at or below 1 make DegradedDevice a
	// no-op.
	Severity float64
}

// Event records one fired fault: fire number Seq of armed point Point.
type Event struct {
	Point  int // index of the armed point, in arm order
	Seq    int64
	Kind   Kind
	Target string
}

// String renders the event as "p<point>/<seq>:kind@target".
func (e Event) String() string {
	return fmt.Sprintf("p%d/%d:%s@%s", e.Point, e.Seq, e.Kind, e.Target)
}

// armedPoint is a Point plus its private RNG stream and fire log.
type armedPoint struct {
	Point
	rng    *sim.RNG
	checks int64
	fires  int64
	events []Event
}

// Injector is a seeded source of faults. All methods are safe for
// concurrent use. Each armed point draws from its own RNG stream, so
// determinism holds whenever every point individually sees its matching
// checks in a deterministic order — concurrent draws on *different*
// points never perturb each other.
type Injector struct {
	mu     sync.Mutex
	seed   uint64
	points []*armedPoint
	total  int64
}

// New returns an injector seeded with seed and no armed points.
func New(seed uint64) *Injector {
	return &Injector{seed: seed}
}

// pointSeed derives the RNG seed for the idx-th armed point via a
// splitmix64 step, so nearby seeds and indices give unrelated streams.
func pointSeed(seed uint64, idx int) uint64 {
	x := seed + (uint64(idx)+1)*0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e9b5
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Arm adds a fault point. Points are consulted in arm order.
func (in *Injector) Arm(p Point) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.points = append(in.points, &armedPoint{
		Point: p,
		rng:   sim.NewRNG(pointSeed(in.seed, len(in.points))),
	})
}

// Fire asks whether a fault of the given kind strikes the target now.
// Only checks that match an armed, unexhausted point consume that
// point's randomness, so unrelated checks never perturb the schedule.
func (in *Injector) Fire(kind Kind, target string) bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.fireLocked(kind, target) != nil
}

// fireLocked walks the armed points for a matching fire and returns the
// point that fired, or nil. Callers hold in.mu.
func (in *Injector) fireLocked(kind Kind, target string) *armedPoint {
	for i, ap := range in.points {
		if ap.Kind != kind || ap.Prob <= 0 {
			continue
		}
		if ap.Target != "" && !strings.HasPrefix(target, ap.Target) {
			continue
		}
		if ap.Budget > 0 && ap.fires >= int64(ap.Budget) {
			continue
		}
		ap.checks++
		if ap.checks <= int64(ap.After) {
			continue
		}
		if ap.Prob < 1 && ap.rng.Float64() >= ap.Prob {
			continue
		}
		ap.fires++
		in.total++
		ap.events = append(ap.events, Event{Point: i, Seq: ap.fires, Kind: kind, Target: target})
		return ap
	}
	return nil
}

// Slowdown asks whether a gray-failure fault of the given kind strikes
// the target now and, if so, returns the extra delay to add to an
// operation whose healthy latency is base: DegradedDevice stretches the
// operation to Severity x base (extra = base x (Severity-1)), JitterLink
// adds Severity x base on top. The extra delay is a deterministic
// function of the armed point — no randomness beyond the fire decision
// itself — so fixed-probability points yield byte-identical delay
// schedules under any goroutine interleaving. A zero return means the
// operation proceeds at full health.
func (in *Injector) Slowdown(kind Kind, target string, base time.Duration) time.Duration {
	if in == nil || base <= 0 {
		return 0
	}
	in.mu.Lock()
	ap := in.fireLocked(kind, target)
	in.mu.Unlock()
	if ap == nil {
		return 0
	}
	sev := ap.Severity
	switch kind {
	case DegradedDevice:
		if sev <= 1 {
			return 0
		}
		return time.Duration(float64(base) * (sev - 1))
	case JitterLink:
		if sev <= 0 {
			return 0
		}
		return time.Duration(float64(base) * sev)
	}
	return 0
}

// Events returns a copy of the fired-fault log: points in arm order,
// fires in order within each point.
func (in *Injector) Events() []Event {
	in.mu.Lock()
	defer in.mu.Unlock()
	var out []Event
	for _, ap := range in.points {
		out = append(out, ap.events...)
	}
	return out
}

// Fires reports how many faults have fired so far.
func (in *Injector) Fires() int64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.total
}

// Schedule renders the fired-fault log one event per line, grouped by
// armed point. Two injectors with the same seed, the same armed points
// and the same per-point sequence of Fire calls produce byte-identical
// schedules, regardless of how checks of different points interleave.
func (in *Injector) Schedule() string {
	events := in.Events()
	var b strings.Builder
	for _, e := range events {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// Reset rewinds the injector to its freshly seeded state, clearing the
// event log and every point's spent budget but keeping the armed points.
func (in *Injector) Reset() {
	in.mu.Lock()
	defer in.mu.Unlock()
	for i, ap := range in.points {
		ap.rng = sim.NewRNG(pointSeed(in.seed, i))
		ap.checks = 0
		ap.fires = 0
		ap.events = nil
	}
	in.total = 0
}

// FaultError is the typed error surfaced by injected faults.
type FaultError struct {
	Kind   Kind
	Target string
}

// Error renders the fault.
func (e *FaultError) Error() string {
	return fmt.Sprintf("faults: injected %s on %s", e.Kind, e.Target)
}

// Transient reports whether retrying the failed operation can succeed.
// The gray-failure kinds are transient: a degraded device or jittery
// link still serves, so any error surfaced around them (a deadline
// blown by the slowdown, a hedge losing its race) is worth retrying
// elsewhere rather than failing the query. StickyCorrupt and
// DeviceOffline are permanent: the damage outlives any retry.
func (e *FaultError) Transient() bool {
	switch e.Kind {
	case TransientRead, ObjectMissing, LinkFlap, DegradedDevice, JitterLink:
		return true
	}
	return false
}

// transienter is the classification interface recovery layers test for;
// any error can opt into retryability by implementing it.
type transienter interface{ Transient() bool }

// IsTransient reports whether err (anywhere in its chain) marks itself
// as retryable.
func IsTransient(err error) bool {
	var t transienter
	return errors.As(err, &t) && t.Transient()
}
