package metrics

import (
	"testing"
	"time"
)

// BenchmarkMetricsDisabled is CI's zero-alloc gate: with a nil registry
// (telemetry off), every instrument call on the hot path must cost
// nothing — 0 allocs/op, a handful of nil checks. This is the same
// contract obs.Trace keeps for tracing.
func BenchmarkMetricsDisabled(b *testing.B) {
	var r *Registry
	c := r.Counter("c")
	g := r.Gauge("g")
	h := r.Histogram("h")
	m := r.RateMeter("m")
	s := r.SLO("s", time.Millisecond, 0.99)
	now := time.Unix(0, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Add(1)
		g.Set(float64(i))
		h.Observe(int64(i))
		m.Mark(now, 1)
		s.Observe(now, time.Duration(i))
		_ = s.BurnRate(now)
	}
}

// BenchmarkMetricsEnabled bounds the enabled hot path (atomics only;
// Counter/Gauge/Histogram must stay alloc-free too — RateMeter and SLO
// sit off the per-batch path and may take their mutex).
func BenchmarkMetricsEnabled(b *testing.B) {
	r := New()
	c := r.Counter("c")
	g := r.Gauge("g")
	h := r.Histogram("h")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Add(1)
		g.Set(float64(i))
		h.Observe(int64(i))
	}
}

// BenchmarkMetricsLookup bounds the get-or-create path callers use once
// per scan or query.
func BenchmarkMetricsLookup(b *testing.B) {
	r := New()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Counter("fleet.queries").Inc()
	}
}
