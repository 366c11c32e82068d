package core

import (
	"context"
	"sync"
	"time"

	"repro/internal/columnar"
	"repro/internal/fabric"
	"repro/internal/storage"
	"repro/internal/wiring"
)

// engineBase is what the two engines share: the cluster and storage
// server they run on, the catalog, and the knobs and optional subsystems
// that mean the same thing for a push pipeline and a pull loop. It is
// embedded by value, so every field and method below reads as the
// engine's own (eng.Workers, vol.Tracing, eng.Storage.Store()).
type engineBase struct {
	Cluster *fabric.Cluster
	Storage *storage.Server

	// Services is the engine's one wiring point, allocated with the
	// engine and shared by pointer with every layer it builds, so
	// eng.Metrics, eng.Resilience, eng.SLO, eng.Faults and eng.Clock are
	// the very fields the object store, the storage server, the
	// scheduler, the repair controller and every pipeline run read:
	// assign one (before the first query) and all of them see it. All
	// five default to nil, which is off (a nil clock is the wall clock)
	// and adds zero allocations to the per-batch hot path.
	// The baseline's pull model can host only part of Resilience, the
	// hedged replica reads: speculation and breaker-steered placement
	// need the dataflow engine's morsels and plan variants.
	*wiring.Services

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
	// delivering batches in segment order. The stages pulled above the
	// scan — the data-flow engine's own, driven by exec.Pull — stay serial:
	// the pull model gives them no independent work units, which is
	// exactly why the baseline scales worse than the dataflow engine
	// (E22). Tracing forces serial.
	Workers int

	// engine names the embedding engine in stats and telemetry labels:
	// "dataflow" or "volcano".
	engine string
	// pub caches the registry's resolved instruments so per-query
	// publishing is pure atomic updates; rebuilt when Metrics changes.
	pubMu sync.Mutex
	pub   *enginePublisher
}

// newEngineBase wires a storage server onto the cluster's storage node
// and allocates the engine's wiring point, handing it to the store.
func newEngineBase(c *fabric.Cluster, engine string) engineBase {
	media := c.MustDevice(fabric.DevStorageMed)
	link := c.LinkBetween(fabric.DevStorageMed, fabric.DevStorageProc)
	svc := new(wiring.Services)
	return engineBase{
		Cluster:  c,
		Storage:  storage.NewServer(storage.NewObjectStore(svc), media, c.StorageProc(), link),
		Services: svc,
		engine:   engine,
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

// publishQuery observes the wall latency of a query that started at
// start, read on the engine's clock, on the SLO tracker and lands its
// resource attribution on the registry (when metrics are on).
func (e *engineBase) publishQuery(ctx context.Context, res *Result, start time.Time) {
	now := e.Clock.Now()
	wall := now.Sub(start)
	e.SLO.Observe(now, wall)
	if p := e.publisher(); p != nil && res != nil {
		p.publish(e.Resilience, TenantFrom(ctx), res, now, wall)
	}
}
