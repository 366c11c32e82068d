package metrics

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilRegistryIsOff(t *testing.T) {
	var r *Registry
	c := r.Counter("c")
	g := r.Gauge("g")
	h := r.Histogram("h")
	m := r.RateMeter("m")
	s := r.SLO("s", time.Millisecond, 0.99)
	now := time.Unix(500, 0)
	if c != nil || g != nil || h != nil || m != nil || s != nil {
		t.Fatalf("nil registry must hand out nil instruments")
	}
	// Every method must be a no-op on nil receivers, not a panic.
	c.Add(5)
	c.Inc()
	g.Set(1)
	g.Add(2)
	h.Observe(3)
	m.Mark(now, 4)
	s.Observe(now, time.Second)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Quantile(0.5) != 0 ||
		h.Sum() != 0 || h.Max() != 0 || m.Rate(now) != 0 || m.Total() != 0 ||
		s.BurnRate(now) != 0 || s.Target() != 0 {
		t.Fatalf("nil instruments must read zero")
	}
	snap := r.Snapshot(now)
	if len(snap.Counters)+len(snap.Gauges)+len(snap.Histograms) != 0 {
		t.Fatalf("nil registry snapshot must be empty")
	}
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf, now); err != nil {
		t.Fatalf("WritePrometheus on nil: %v", err)
	}
	if err := r.WriteText(&buf, now); err != nil {
		t.Fatalf("WriteText on nil: %v", err)
	}
	if err := r.WriteJSON(&buf, now); err != nil {
		t.Fatalf("WriteJSON on nil: %v", err)
	}
}

func TestCounterGaugeBasics(t *testing.T) {
	r := New()
	c := r.Counter("queries")
	c.Add(3)
	c.Inc()
	if got := c.Value(); got != 4 {
		t.Fatalf("counter = %d, want 4", got)
	}
	if r.Counter("queries") != c {
		t.Fatalf("same name must return the same counter")
	}
	g := r.Gauge("depth")
	g.Set(7)
	g.Add(-2.5)
	if got := g.Value(); got != 4.5 {
		t.Fatalf("gauge = %g, want 4.5", got)
	}
}

func TestHistogramExactSmallValues(t *testing.T) {
	r := New()
	h := r.Histogram("small")
	for v := int64(0); v < 128; v++ {
		h.Observe(v)
	}
	if h.Count() != 128 {
		t.Fatalf("count = %d", h.Count())
	}
	// Values below 128 are bucket-exact: the median of 0..127 by
	// nearest rank (index 64) is exactly 64.
	if got := h.Quantile(0.5); got != 64 {
		t.Fatalf("p50 = %d, want 64", got)
	}
	if got := h.Max(); got != 127 {
		t.Fatalf("max = %d, want 127", got)
	}
}

func TestHistogramQuantileWithinOnePercent(t *testing.T) {
	r := New()
	h := r.Histogram("lat")
	rng := rand.New(rand.NewSource(42))
	vals := make([]int64, 0, 20000)
	for i := 0; i < 20000; i++ {
		// Log-uniform over ~6 decades, the shape of latency data.
		v := int64(100 * (1 << uint(rng.Intn(20))))
		v += rng.Int63n(v/4 + 1)
		vals = append(vals, v)
		h.Observe(v)
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	for _, p := range []float64{0.5, 0.9, 0.95, 0.99, 0.999} {
		exact := vals[int(p*float64(len(vals)))]
		got := h.Quantile(p)
		rel := float64(got-exact) / float64(exact)
		if rel < 0 {
			rel = -rel
		}
		if rel > 0.01 {
			t.Fatalf("p%g: hist=%d exact=%d rel err %.4f > 1%%", p*100, got, exact, rel)
		}
	}
	var sum int64
	for _, v := range vals {
		sum += v
	}
	if h.Sum() != sum {
		t.Fatalf("sum = %d, want %d", h.Sum(), sum)
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	r := New()
	h := r.Histogram("conc")
	var wg sync.WaitGroup
	const goroutines, per = 8, 1000
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < per; i++ {
				h.Observe(rng.Int63n(1 << 30))
			}
		}(int64(g))
	}
	wg.Wait()
	if h.Count() != goroutines*per {
		t.Fatalf("count = %d, want %d", h.Count(), goroutines*per)
	}
}

func TestRateMeterWindow(t *testing.T) {
	r := New()
	now := time.Unix(1000, 0)
	m := r.RateMeter("bytes") // 10s window, 10 slots
	m.Mark(now, 100)
	now = now.Add(time.Second)
	m.Mark(now, 100)
	// 200 units over ~2s of meter age.
	if rate := m.Rate(now); rate < 50 || rate > 200 {
		t.Fatalf("young rate = %g, want ~100", rate)
	}
	if m.Total() != 200 {
		t.Fatalf("total = %d", m.Total())
	}
	// Jump far past the window: everything ages out.
	now = now.Add(time.Minute)
	if rate := m.Rate(now); rate != 0 {
		t.Fatalf("aged rate = %g, want 0", rate)
	}
	if m.Total() != 200 {
		t.Fatalf("total must survive aging, got %d", m.Total())
	}
}

func TestSLOBurnRate(t *testing.T) {
	r := New()
	now := time.Unix(2000, 0)
	s := r.SLO("p99", 10*time.Millisecond, 0.99)
	if s.BurnRate(now) != 0 {
		t.Fatalf("empty tracker must read 0")
	}
	for i := 0; i < 99; i++ {
		s.Observe(now, time.Millisecond)
	}
	s.Observe(now, time.Second) // 1 bad in 100 = exactly the 1% budget
	if burn := s.BurnRate(now); burn < 0.99 || burn > 1.01 {
		t.Fatalf("burn = %g, want 1", burn)
	}
	for i := 0; i < 4; i++ {
		s.Observe(now, time.Second)
	}
	if burn := s.BurnRate(now); burn < 4 { // 5 bad / 104 ≈ 4.8x budget
		t.Fatalf("burn = %g, want > 4", burn)
	}
	// Observations age out of the 30s window.
	now = now.Add(2 * time.Minute)
	if burn := s.BurnRate(now); burn != 0 {
		t.Fatalf("aged burn = %g, want 0", burn)
	}
	good, bad := s.Window(now)
	if good != 0 || bad != 0 {
		t.Fatalf("aged window = %d/%d, want 0/0", good, bad)
	}
}

func TestPrometheusExport(t *testing.T) {
	r := New()
	// One instant for every mark and both scrapes, so the rate/SLO
	// readings (which divide by age) are identical across the two
	// scrapes diffed below.
	now := time.Unix(3000, 0)
	r.Counter("fleet.queries").Add(10)
	r.Counter(Labels("tenant.bytes.moved", "tenant", "acme")).Add(4096)
	r.Gauge("sched.queue.depth").Set(3)
	h := r.Histogram("query.wall.ns")
	for i := 1; i <= 100; i++ {
		h.Observe(int64(i) * 1000)
	}
	r.RateMeter("fleet.bytes").Mark(now, 512)
	r.SLO("fleet.p99", time.Millisecond, 0.99).Observe(now, 2*time.Millisecond)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf, now); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE fleet_queries counter",
		"fleet_queries 10",
		`tenant_bytes_moved{tenant="acme"} 4096`,
		"# TYPE sched_queue_depth gauge",
		"sched_queue_depth 3",
		"# TYPE query_wall_ns summary",
		`query_wall_ns{quantile="0.5"}`,
		`query_wall_ns{quantile="0.99"}`,
		"query_wall_ns_count 100",
		"fleet_bytes_total 512",
		"fleet_bytes_per_second",
		"fleet_p99_burn_rate",
		"fleet_p99_bad 1",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, out)
		}
	}
	// Determinism: a quiesced registry renders byte-identically.
	var buf2 bytes.Buffer
	if err := r.WritePrometheus(&buf2, now); err != nil {
		t.Fatal(err)
	}
	if buf.String() != buf2.String() {
		t.Fatalf("prometheus export is not deterministic")
	}
}

func TestJSONSnapshotRoundTrip(t *testing.T) {
	r := New()
	r.Counter("a").Add(1)
	r.Gauge("b").Set(2)
	r.Histogram("c").Observe(3)
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf, time.Unix(4000, 0)); err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
		t.Fatalf("snapshot is not valid JSON: %v", err)
	}
	if snap.Counters["a"] != 1 || snap.Gauges["b"] != 2 || snap.Histograms["c"].Count != 1 {
		t.Fatalf("round-tripped snapshot lost data: %+v", snap)
	}
}

func TestLabelsEscaping(t *testing.T) {
	got := Labels("m", "k", `va"l\ue`)
	want := `m{k="va\"l\\ue"}`
	if got != want {
		t.Fatalf("Labels = %s, want %s", got, want)
	}
	if Labels("m") != "m" {
		t.Fatalf("no pairs must return the bare name")
	}
	if got := Labels("m", "a", "1", "b", "2"); got != `m{a="1",b="2"}` {
		t.Fatalf("multi-label = %s", got)
	}
}

func TestPromNameSanitize(t *testing.T) {
	base, labels := promName(`scan.decoded.bytes-saved{dev="gpu0"}`)
	if base != "scan_decoded_bytes_saved" || labels != `{dev="gpu0"}` {
		t.Fatalf("promName = %q %q", base, labels)
	}
}
