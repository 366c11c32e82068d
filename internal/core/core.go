package core

import (
	"context"
	"sync"
	"time"

	"repro/internal/columnar"
	"repro/internal/fabric"
	"repro/internal/obs/metrics"
	"repro/internal/resilience"
	"repro/internal/storage"
)

// engineBase is what the two engines share: the cluster and storage
// server they run on, the catalog, and the knobs and telemetry wiring
// that mean the same thing for a push pipeline and a pull loop. It is
// embedded by value, so every field and method below reads as the
// engine's own (eng.Workers, vol.Tracing, eng.Storage.Store()).
type engineBase struct {
	Cluster *fabric.Cluster
	Storage *storage.Server

	// Tracing makes every execution record a virtual-time span timeline,
	// returned in Result.Trace. Off by default: disabled tracing adds
	// zero allocations to the per-batch hot path. The baseline is a pull
	// engine, so its timeline is one serial chain: fetch, transfer, decode
	// and every operator advance a single virtual clock with zero overlap
	// — the concurrency factor the dataflow engine's staged pipeline is
	// measured against.
	Tracing bool
	// Workers > 1 enables intra-query morsel parallelism. Results, stats
	// and metered totals are identical to Workers == 1 — only the per-lane
	// busy split, and therefore SimTime, changes. Serial passive resources
	// (the storage media, network links) are never divided, so speedup
	// saturates where the data path does.
	//
	// Dataflow: the storage scan splits into per-segment morsels claimed
	// by a worker pool, and every parallelizable flow stage runs as a pool
	// of that many workers (clamped per stage to its device's replicated
	// units). The one exception to identical totals is parallel partial
	// aggregation: each replica flushes its own partial state, so group-by
	// plans ship a few extra KiB of partials per worker to the final merge.
	//
	// Volcano: only the fetch/decode front of the pull loop widens — a
	// pool of that many workers (clamped to the CPU's cores) prefetches
	// segments through the buffer pool and decodes them on per-core lanes,
	// delivering batches to the iterator tree in segment order. The
	// operators above the scan stay serial — the pull model gives them no
	// independent work units — which is exactly why the baseline scales
	// worse than the dataflow engine (E22). Tracing forces serial.
	Workers int
	// Resilience bundles the gray-failure defenses: per-device health
	// tracking, hedged replica reads, speculative morsel re-execution,
	// circuit breakers and the global retry budget. Wire it with
	// EnableResilience so every layer the engine owns shares one policy;
	// nil (the default) disables every defense and reproduces the
	// pre-resilience engine exactly. The baseline's pull model can host
	// only the hedged reads: speculation and breaker-steered placement
	// need the dataflow engine's morsels and plan variants.
	Resilience *resilience.Policy
	// Metrics, when set (wire it with SetMetrics so the storage layers
	// share the registry), publishes continuous fleet telemetry:
	// per-query resource attribution (busy time and bytes charged to the
	// context's tenant label), latency histograms, per-device and
	// per-link utilization gauges, and the layer counters every
	// subsystem folds in. Nil is off and adds zero allocations to the
	// per-batch hot path, exactly like Tracing.
	Metrics *metrics.Registry
	// SLO, when set, receives every query's wall latency. Point the
	// scheduler's SLO field at the same tracker (and set its
	// SLOShedBurnRate) to close the loop: burn-rate-driven shedding.
	SLO *metrics.SLOTracker

	// engine names the embedding engine in stats and telemetry labels:
	// "dataflow" or "volcano".
	engine string
	// pub caches the registry's resolved instruments so per-query
	// publishing is pure atomic updates; rebuilt when Metrics changes.
	pubMu sync.Mutex
	pub   *enginePublisher
}

// newEngineBase wires a storage server onto the cluster's storage node.
func newEngineBase(c *fabric.Cluster, engine string) engineBase {
	media := c.MustDevice(fabric.DevStorageMed)
	link := c.LinkBetween(fabric.DevStorageMed, fabric.DevStorageProc)
	return engineBase{
		Cluster: c,
		Storage: storage.NewServer(storage.NewObjectStore(), media, c.StorageProc(), link),
		engine:  engine,
	}
}

// CreateTable registers a table.
func (e *engineBase) CreateTable(name string, schema *columnar.Schema) error {
	_, err := e.Storage.CreateTable(name, schema)
	return err
}

// TableSchema resolves a table's schema (it satisfies sqlparse.Catalog).
func (e *engineBase) TableSchema(name string) (*columnar.Schema, error) {
	meta, err := e.Storage.Table(name)
	if err != nil {
		return nil, err
	}
	return meta.Schema, nil
}

// EnableResilience installs (or, with nil, removes) a gray-failure
// policy on the object store: replica reads hedge and the health tracker
// learns per-replica latency. That is all the baseline can use — the
// pull engine has no scheduler or morsel scan — and the store half of
// what the dataflow engine installs.
func (e *engineBase) EnableResilience(p *resilience.Policy) {
	e.Resilience = p
	e.Storage.Store().Resilience = p
}

// SetMetrics installs (or, with nil, removes) the fleet registry on the
// engine and the storage layers under it: the storage server folds scan
// stats, the object store mirrors hedge activity, and the engine itself
// publishes per-query resource attribution after every execution.
func (e *engineBase) SetMetrics(r *metrics.Registry) {
	e.Metrics = r
	e.Storage.Metrics = r
	e.Storage.Store().Metrics = r
}

// publisher returns the engine's cached publisher, rebuilding it when
// the registry was swapped. Nil when metrics are off.
func (e *engineBase) publisher() *enginePublisher {
	if e.Metrics == nil {
		return nil
	}
	e.pubMu.Lock()
	defer e.pubMu.Unlock()
	if e.pub == nil || e.pub.reg != e.Metrics {
		e.pub = newEnginePublisher(e.Metrics, e.Cluster, e.engine)
	}
	return e.pub
}

// publishQuery observes the query's wall latency on the SLO tracker and
// lands its resource attribution on the registry (when metrics are on).
func (e *engineBase) publishQuery(ctx context.Context, res *Result, wall time.Duration) {
	e.SLO.Observe(wall)
	if p := e.publisher(); p != nil && res != nil {
		p.publish(e.Resilience, TenantFrom(ctx), res, wall)
	}
}
