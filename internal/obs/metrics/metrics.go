// Package metrics is the continuous-telemetry half of the obs layer: a
// lock-cheap registry of counters, gauges, windowed HDR-style latency
// histograms, rolling-window rate meters and SLO trackers that every
// layer of the system folds into while it runs. Where obs.Trace answers
// "where did this one query's virtual time land" after the fact, this
// package answers "what is the fleet's p99 right now, which device is
// saturated, and which tenant is burning the bytes" while the load is
// still arriving.
//
// Design rules (shared with obs.Trace):
//
//   - Nil is off. A nil *Registry hands out nil instruments, and every
//     instrument method is safe on a nil receiver and does nothing, so
//     instrumented code needs no flag checks and pays zero allocations
//     when telemetry is disabled (BenchmarkMetricsDisabled gates this
//     in CI at 0 allocs/op).
//   - The hot path is atomics only. Counter.Add, Gauge.Set,
//     Histogram.Observe and RateMeter.Mark never take the registry
//     lock and never allocate; the registry's RWMutex is touched only
//     on instrument lookup, which callers do once per scan / query /
//     pipeline, not per batch.
//   - Reads are monitoring-grade. Snapshots and quantiles read the
//     same atomics without stopping writers, so a scrape that races a
//     burst may be a few observations stale — never torn per-word, but
//     not a cross-instrument transaction either. Tests that assert
//     exact sums quiesce first.
//
// Instrument names are dotted paths ("sched.queue.depth"); a label pair
// rides inside the name in Prometheus form ("tenant.bytes.moved" +
// tenant "a" → `tenant.bytes.moved{tenant="a"}`, built by Labels). The
// exporters split the name back apart, so one flat map serves the
// Prometheus text endpoint, the JSON snapshot and the dfshell view.
package metrics

import (
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Registry holds every instrument by name. Get-or-create methods hand
// back the same instrument for the same name, so independent layers may
// fold into one series without coordination. The zero value is NOT
// ready to use — call New. A nil *Registry is the off switch.
type Registry struct {
	mu     sync.RWMutex
	counts map[string]*Counter
	gauges map[string]*Gauge
	hists  map[string]*Histogram
	rates  map[string]*RateMeter
	slos   map[string]*SLOTracker
}

// New builds an empty registry.
func New() *Registry {
	return &Registry{
		counts: make(map[string]*Counter),
		gauges: make(map[string]*Gauge),
		hists:  make(map[string]*Histogram),
		rates:  make(map[string]*RateMeter),
		slos:   make(map[string]*SLOTracker),
	}
}

// Counter returns the named monotonically-increasing counter, creating
// it on first use. Nil registry → nil counter (all methods no-op).
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	c := r.counts[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counts[name]; c == nil {
		c = &Counter{}
		r.counts[name] = c
	}
	return c
}

// Gauge returns the named last-value-wins gauge.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named cumulative histogram.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	h := r.hists[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.hists[name]; h == nil {
		h = newHistogram()
		r.hists[name] = h
	}
	return h
}

// RateMeter returns the named rolling-window rate meter (default
// window: 10s over 10 slots, first creation wins).
func (r *Registry) RateMeter(name string) *RateMeter {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	m := r.rates[name]
	r.mu.RUnlock()
	if m != nil {
		return m
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if m = r.rates[name]; m == nil {
		m = &RateMeter{ring: newSlotRing(10*time.Second, 10)}
		r.rates[name] = m
	}
	return m
}

// SLO returns the named SLO tracker: target is the latency objective
// and objective the promised good fraction (0.99 → a 1% error budget).
// Parameters are fixed at first creation.
func (r *Registry) SLO(name string, target time.Duration, objective float64) *SLOTracker {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	s := r.slos[name]
	r.mu.RUnlock()
	if s != nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if s = r.slos[name]; s == nil {
		s = NewSLOTracker(target, objective)
		r.slos[name] = s
	}
	return s
}

// Counter is a monotonically-increasing int64. The zero value is ready;
// a nil *Counter is a no-op.
type Counter struct {
	v atomic.Int64
}

// Add increments by n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments by one.
func (c *Counter) Inc() { c.Add(1) }

// Value reads the current total (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a last-value-wins float64. The zero value is ready; a nil
// *Gauge is a no-op.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add adjusts the gauge by delta (CAS loop; use for occupancy-style
// up/down tracking).
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value reads the gauge (0 on nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Labels renders name plus label pairs in Prometheus form:
// Labels("tenant.bytes", "tenant", "a") → `tenant.bytes{tenant="a"}`.
// kv must alternate key, value; a trailing odd key is dropped. The
// result is a plain registry name — labels are a naming convention the
// exporters know how to split, not a separate dimension store.
func Labels(name string, kv ...string) string {
	if len(kv) < 2 {
		return name
	}
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i := 0; i+1 < len(kv); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(kv[i])
		b.WriteString(`="`)
		b.WriteString(labelEscape(kv[i+1]))
		b.WriteString(`"`)
	}
	b.WriteByte('}')
	return b.String()
}

func labelEscape(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// splitName separates a possibly-labelled instrument name into its base
// and the label block (brace-wrapped, empty when unlabelled).
func splitName(name string) (base, labels string) {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i], name[i:]
	}
	return name, ""
}

// sortedKeys returns map keys in deterministic order for the exporters.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
