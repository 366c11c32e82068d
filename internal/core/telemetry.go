package core

import (
	"context"
	"sync"
	"time"

	"repro/internal/fabric"
	"repro/internal/obs/metrics"
	"repro/internal/resilience"
	"repro/internal/sim"
)

// DefaultTenant labels queries whose context carries no tenant.
const DefaultTenant = "default"

type tenantKey struct{}

// WithTenant tags a query's context with the tenant (or workload) the
// fleet should charge its resources to. Attribution is per execution:
// every byte and virtual-nanosecond of busy time the query's ExecStats
// account for lands on tenant-labelled counters, incremented at the
// same site and with the same values as the fleet totals — so summing
// the tenant series reproduces the fleet series exactly.
func WithTenant(ctx context.Context, tenant string) context.Context {
	if tenant == "" {
		return ctx
	}
	return context.WithValue(ctxOrBackground(ctx), tenantKey{}, tenant)
}

// TenantFrom reads the tenant label from ctx, or DefaultTenant.
func TenantFrom(ctx context.Context) string {
	if ctx != nil {
		if t, ok := ctx.Value(tenantKey{}).(string); ok && t != "" {
			return t
		}
	}
	return DefaultTenant
}

// SetSLO closes the latency-SLO control loop: every finished query's
// wall latency is observed against t (the same as assigning e.SLO), and
// the scheduler sheds arriving queries that would otherwise queue once
// the error-budget burn rate reaches shedBurn. shedBurn <= 0 keeps the
// tracker observational only.
func (e *DataFlowEngine) SetSLO(t *metrics.SLOTracker, shedBurn float64) {
	e.SLO = t
	e.Scheduler.SLOShedBurnRate = shedBurn
}

// enginePublisher is the per-engine fast path for landing a finished
// query on the registry. Every instrument the publish touches is
// resolved once, up front — per-query cost is then pure atomic updates,
// with no label building, no registry lock, and no topology re-sort.
// Attribution invariants:
//
//   - Fleet and tenant counters increment at this one site with the
//     same values, so per-tenant sums equal fleet totals exactly.
//   - Charged bytes are Scan.MediaBytes + MovedBytes — the winner-only
//     logical work. Hedge and speculation duplicates meter separately
//     (storage.hedge.bytes, scan.speculative.bytes) and are never
//     charged to a tenant: defensive spend is the operator's cost, not
//     the tenant's.
//   - Busy time is the sum of the per-device virtual busy times on the
//     query's own account, the decomposition ExecStats.DeviceBusy
//     reports — so N overlapping copies of a query publish N times what
//     one publishes alone.
type enginePublisher struct {
	reg *metrics.Registry

	fleetQueries, fleetBusy, fleetBytes, fleetRows *metrics.Counter
	engineQueries                                  *metrics.Counter
	wallHist, simHist                              *metrics.Histogram
	queryRate, bytesRate                           *metrics.RateMeter
	concurrency, decodedSaved, budgetTokens        *metrics.Gauge
	budgetExhausted                                *metrics.Counter

	devUtil map[string]*metrics.Gauge // keyed by ExecStats.DeviceBusy device
	devices []publisherDevice
	links   map[string]publisherLink // keyed by ExecStats.LinkBytes link

	mu      sync.Mutex
	tenants map[string]*tenantSeries
}

type publisherDevice struct {
	d    *fabric.Device
	busy *metrics.Gauge
}

type publisherLink struct {
	l          *fabric.Link
	bytes      *metrics.Counter
	busy, util *metrics.Gauge
}

type tenantSeries struct {
	queries, busy, bytes *metrics.Counter
}

func newEnginePublisher(reg *metrics.Registry, cluster *fabric.Cluster, engine string) *enginePublisher {
	p := &enginePublisher{
		reg:             reg,
		fleetQueries:    reg.Counter("fleet.queries"),
		fleetBusy:       reg.Counter("fleet.busy.vns"),
		fleetBytes:      reg.Counter("fleet.bytes"),
		fleetRows:       reg.Counter("fleet.rows"),
		engineQueries:   reg.Counter(metrics.Labels("engine.queries", "engine", engine)),
		wallHist:        reg.Histogram("query.wall.ns"),
		simHist:         reg.Histogram("query.simtime.vns"),
		queryRate:       reg.RateMeter("fleet.queries.rate"),
		bytesRate:       reg.RateMeter("fleet.bytes.rate"),
		concurrency:     reg.Gauge("query.concurrency.factor"),
		decodedSaved:    reg.Gauge("query.decoded.bytes.saved"),
		budgetTokens:    reg.Gauge("resilience.budget.tokens"),
		budgetExhausted: reg.Counter("resilience.budget.exhausted"),
		devUtil:         map[string]*metrics.Gauge{},
		links:           map[string]publisherLink{},
		tenants:         map[string]*tenantSeries{},
	}
	if cluster != nil {
		for _, d := range cluster.Devices() {
			p.devUtil[d.Name] = reg.Gauge(metrics.Labels("fabric.device.utilization", "device", d.Name))
			p.devices = append(p.devices, publisherDevice{
				d:    d,
				busy: reg.Gauge(metrics.Labels("fabric.device.busy.vns", "device", d.Name)),
			})
		}
		for _, l := range cluster.Links() {
			p.links[l.Name] = publisherLink{
				l:     l,
				bytes: reg.Counter(metrics.Labels("fabric.link.bytes", "link", l.Name)),
				busy:  reg.Gauge(metrics.Labels("fabric.link.busy.vns", "link", l.Name)),
				util:  reg.Gauge(metrics.Labels("fabric.link.util", "link", l.Name)),
			}
		}
	}
	return p
}

// tenantFor returns (creating on first sight) the tenant's counters.
func (p *enginePublisher) tenantFor(tenant string) *tenantSeries {
	p.mu.Lock()
	ts := p.tenants[tenant]
	if ts == nil {
		ts = &tenantSeries{
			queries: p.reg.Counter(metrics.Labels("tenant.queries", "tenant", tenant)),
			busy:    p.reg.Counter(metrics.Labels("tenant.busy.vns", "tenant", tenant)),
			bytes:   p.reg.Counter(metrics.Labels("tenant.bytes", "tenant", tenant)),
		}
		p.tenants[tenant] = ts
	}
	p.mu.Unlock()
	return ts
}

// publish lands one query that finished at instant now after wall.
// Safe for concurrent use.
func (p *enginePublisher) publish(pol *resilience.Policy, tenant string, res *Result, now time.Time, wall time.Duration) {
	st := &res.Stats
	var busy sim.VTime
	for _, b := range st.DeviceBusy {
		busy += b
	}
	bytes := int64(st.MovedBytes + st.Scan.MediaBytes)

	p.fleetQueries.Inc()
	p.fleetBusy.Add(int64(busy))
	p.fleetBytes.Add(bytes)
	p.fleetRows.Add(st.ResultRows)
	ts := p.tenantFor(tenant)
	ts.queries.Inc()
	ts.busy.Add(int64(busy))
	ts.bytes.Add(bytes)
	p.engineQueries.Inc()

	p.wallHist.Observe(wall.Nanoseconds())
	p.simHist.Observe(int64(st.SimTime))
	p.queryRate.Mark(now, 1)
	p.bytesRate.Mark(now, bytes)

	// Last-query gauges: the scrape-visible face of PR 2's concurrency
	// factor and PR 5's decode savings.
	if res.Trace != nil {
		p.concurrency.Set(res.Trace.ConcurrencyFactor())
	}
	p.decodedSaved.Set(float64(st.Scan.DecodedBytesSaved))

	// Per-device and per-link utilization over this query's makespan:
	// its own busy time on the resource over its SimTime, the same
	// quantity obs.Trace.Utilizations derives from spans, but available
	// without tracing. Cumulative busy and bytes ride along so a scraper
	// can rate() its own utilization over wall time.
	if st.SimTime > 0 {
		for dev, b := range st.DeviceBusy {
			if g := p.devUtil[dev]; g != nil {
				g.Set(float64(b) / float64(st.SimTime))
			}
		}
		for link, n := range st.LinkBytes {
			if l, ok := p.links[link]; ok {
				l.bytes.Add(int64(n))
				l.util.Set(float64(st.LinkBusy[link]) / float64(st.SimTime))
			}
		}
	}
	for _, d := range p.devices {
		d.busy.Set(float64(d.d.Meter.Busy()))
	}
	for _, l := range p.links {
		l.busy.Set(float64(l.l.Meter.Busy()))
	}
	if pol != nil && pol.Budget != nil {
		p.budgetTokens.Set(pol.Budget.Tokens())
		p.budgetExhausted.Add(st.Scan.RetryBudgetExhausted)
	}
}

// publishBreakerGauge mirrors one breaker transition into the registry
// (the numeric BreakerState: 0 closed, 1 open, 2 half-open), plus a
// trip counter on each opening.
func publishBreakerGauge(reg *metrics.Registry, dev string, st resilience.BreakerState) {
	if reg == nil {
		return
	}
	reg.Gauge(metrics.Labels("resilience.breaker.state", "device", dev)).Set(float64(st))
	if st == resilience.Open {
		reg.Counter("resilience.breaker.trips").Inc()
	}
}
