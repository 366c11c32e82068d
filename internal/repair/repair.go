// Package repair is the durability controller that closes the storage
// tier's detect -> route-around -> heal loop. Checksums (PR 1) detect a
// corrupt replica and hedges (PR 6) route around a slow or damaged one,
// but on their own the damage is permanent: every later read re-pays
// the fallback tax and a second fault on the surviving replica loses
// the data. The controller heals in three ways:
//
//   - Read-repair: the object store writes the clean payload that
//     satisfied a read back over any replica that served corrupt bytes
//     (wired in internal/storage; the controller is its ledger).
//   - Background scrubbing: an idle-time walker verifies segment
//     checksums replica by replica under a token-bucket byte budget,
//     escalating a transient suspicion into a persistent verdict by
//     re-reading before it repairs.
//   - Re-replication: a replica whose blobs are lost and whose breaker
//     has stayed open past a deadline is declared dead, and its
//     segments are re-cloned from the survivors to restore the target
//     replication factor.
//
// All repair I/O is metered on the store's repair/scrub counters, never
// the main Meter, and paced by the SLO burn-rate signal: while the
// foreground is missing its objective, repair yields the device queues
// — bounded foreground p99, finite MTTR. A nil *Controller is a valid
// no-op, and a store without a controller pays nothing on its read
// path.
package repair

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/sim"
	"repro/internal/storage"
)

// Config tunes a Controller. The zero value scrubs and re-clones as
// fast as the store allows, with no SLO coordination — the
// "unthrottled" arm of E26.
type Config struct {
	// ScrubRate paces scrub reads in bytes per second of wall clock;
	// <= 0 leaves them unpaced.
	ScrubRate float64
	// RepairRate paces re-replication copies in bytes per second;
	// <= 0 leaves them unpaced.
	RepairRate float64
	// BurnMax, with an SLO tracker wired, pauses all background repair
	// while the foreground burn rate is at or above it; <= 0 disables
	// the pause.
	BurnMax float64
	// DeadAfter is how long a replica must stay lost (first observation
	// to now, with its breaker open when one is wired) before the
	// controller declares it dead and re-clones. Zero declares on first
	// sight.
	DeadAfter time.Duration
	// Interval is the background loop's pause between passes; Run
	// clamps non-positive values to a millisecond.
	Interval time.Duration
	// Streams is the number of concurrent re-clone workers; values
	// below 1 mean 1. Unthrottled configs raise it to model a repair
	// storm.
	Streams int
}

// Verdict classifies a ledger incident.
type Verdict uint8

// Incident verdicts, in escalation order.
const (
	// VerdictTransient is a first checksum failure, to be confirmed by
	// re-read before any repair.
	VerdictTransient Verdict = iota
	// VerdictPersistent is a re-confirmed checksum failure: the stored
	// blob is damaged.
	VerdictPersistent
	// VerdictLost is a replica slot whose blob is gone entirely.
	VerdictLost
	// VerdictUnrecoverable is damage with no clean replica left to
	// repair from.
	VerdictUnrecoverable
)

// String names the verdict.
func (v Verdict) String() string {
	switch v {
	case VerdictTransient:
		return "transient"
	case VerdictPersistent:
		return "persistent"
	case VerdictLost:
		return "lost"
	case VerdictUnrecoverable:
		return "unrecoverable"
	}
	return "unknown"
}

// Incident is one fault-ledger entry: what the controller concluded
// about one replica blob and whether it healed it.
type Incident struct {
	Key     string
	Replica int
	Verdict Verdict
	Healed  bool
}

// Controller owns the background scrub and re-replication loops for one
// object store. All methods are safe for concurrent use and on a nil
// receiver.
//
// Its optional collaborators are the store's (ObjectStore.Services),
// read where they are used: Resilience supplies the breaker consulted by
// the dead-replica deadline and the health tracker forgiven after a
// heal, SLO is the foreground burn-rate signal behind BurnMax, Metrics
// receives the durability gauges, and Clock paces the loops and the
// byte budgets and times the dead-replica deadline and MTTR.
type Controller struct {
	store *storage.ObjectStore
	cfg   Config

	// verify checks one replica blob; defaults to
	// storage.VerifySegmentBlob.
	verify func(key string, data []byte) error

	scrubTokens  throttle
	repairTokens throttle

	mu        sync.Mutex
	ledger    []Incident
	lostSince map[int]time.Time // replica index -> first time seen lost
	deadAt    map[int]time.Time // replica index -> when declared dead
	lastMTTR  time.Duration

	scrubbed      atomic.Int64 // replica blobs verified clean
	scrubRepairs  atomic.Int64 // blobs healed by the scrubber
	readRepairs   atomic.Int64 // blobs healed by foreground read-repair
	recloned      atomic.Int64 // blobs restored by re-replication
	unrecoverable atomic.Int64
	deadDeclared  atomic.Int64
}

// New returns a controller for store with the given config.
func New(store *storage.ObjectStore, cfg Config) *Controller {
	c := &Controller{
		store:     store,
		cfg:       cfg,
		verify:    func(_ string, data []byte) error { return storage.VerifySegmentBlob(data) },
		lostSince: make(map[int]time.Time),
		deadAt:    make(map[int]time.Time),
	}
	c.scrubTokens.rate = cfg.ScrubRate
	c.repairTokens.rate = cfg.RepairRate
	// Read-repair write-backs happen inside the store; the controller
	// ledgers them.
	store.OnRepair = func(key string, replica int) {
		c.readRepairs.Add(1)
	}
	return c
}

// Enabled reports whether a controller is present; nil is off.
func (c *Controller) Enabled() bool { return c != nil }

// pause is the yield quantum while the SLO burn rate holds repair back.
const pause = 2 * time.Millisecond

// admitQuantum blocks until background repair may do its next quantum
// of work: the SLO burn rate must be below BurnMax — durability work
// must not finish off a tail that foreground queries are already losing.
// Returns ctx's error if cancelled while waiting.
func (c *Controller) admitQuantum(ctx context.Context) error {
	svc := c.store.Services()
	for {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		// A nil tracker burns at 0, a nil registry counts nothing.
		if c.cfg.BurnMax <= 0 || svc.SLO.BurnRate(svc.Clock.Now()) < c.cfg.BurnMax {
			return nil
		}
		svc.Metrics.Counter("repair.deferred.burn").Inc()
		svc.Clock.Sleep(ctx, pause)
	}
}

// record appends one incident to the fault ledger.
func (c *Controller) record(inc Incident) {
	c.mu.Lock()
	c.ledger = append(c.ledger, inc)
	c.mu.Unlock()
}

// Report is a snapshot of the controller's lifetime work.
type Report struct {
	// Scrubbed counts replica blobs verified clean by the scrubber.
	Scrubbed int64
	// ScrubRepairs counts blobs the scrubber healed.
	ScrubRepairs int64
	// ReadRepairs counts blobs healed by foreground read-repair
	// write-backs.
	ReadRepairs int64
	// Recloned counts blobs restored by re-replication.
	Recloned int64
	// Unrecoverable counts blobs with no clean source left.
	Unrecoverable int64
	// DeadDeclared counts replicas declared permanently dead.
	DeadDeclared int64
	// AtRiskObjects is the current number of under-replicated objects.
	AtRiskObjects int64
	// LastMTTR is the time the most recent completed re-replication
	// took on the store's clock, from first observing the loss to full
	// restoration; zero if none completed yet.
	LastMTTR time.Duration
	// Incidents is the fault-ledger length.
	Incidents int64
}

// Stats snapshots the controller's counters; zero on a nil controller.
func (c *Controller) Stats() Report {
	if c == nil {
		return Report{}
	}
	atRisk := 0
	if c.store != nil {
		atRisk, _ = c.store.UnderReplicated()
	}
	c.mu.Lock()
	mttr := c.lastMTTR
	incidents := int64(len(c.ledger))
	c.mu.Unlock()
	return Report{
		Scrubbed:      c.scrubbed.Load(),
		ScrubRepairs:  c.scrubRepairs.Load(),
		ReadRepairs:   c.readRepairs.Load(),
		Recloned:      c.recloned.Load(),
		Unrecoverable: c.unrecoverable.Load(),
		DeadDeclared:  c.deadDeclared.Load(),
		AtRiskObjects: int64(atRisk),
		LastMTTR:      mttr,
		Incidents:     incidents,
	}
}

// Run drives scrub and re-replication passes until ctx is cancelled,
// publishing the durability gauges after every pass. This is the
// idle-time loop an engine starts once at boot.
func (c *Controller) Run(ctx context.Context) {
	if c == nil {
		return
	}
	interval := c.cfg.Interval
	if interval <= 0 {
		interval = time.Millisecond
	}
	for {
		if ctx != nil && ctx.Err() != nil {
			return
		}
		c.ScrubPass(ctx)
		c.ReclonePass(ctx)
		c.publish()
		if err := c.store.Services().Clock.Sleep(ctx, interval); err != nil {
			return
		}
	}
}

// publish lands the durability gauges on the store's registry.
func (c *Controller) publish() {
	if c == nil {
		return
	}
	reg := c.store.Services().Metrics
	if reg == nil {
		return
	}
	objects, slots := c.store.UnderReplicated()
	lost := 0
	for _, n := range slots {
		lost += n
	}
	reg.Gauge("durability.at_risk.objects").Set(float64(objects))
	reg.Gauge("durability.at_risk.blobs").Set(float64(lost))
	reg.Gauge("durability.scrubbed").Set(float64(c.scrubbed.Load()))
	reg.Gauge("durability.recloned").Set(float64(c.recloned.Load()))
	c.mu.Lock()
	mttr := c.lastMTTR
	c.mu.Unlock()
	reg.Gauge("durability.mttr.ms").Set(float64(mttr.Milliseconds()))
}

// throttle is a token bucket over the store's clock: acquire(n) blocks
// until n byte-tokens have accumulated at rate per second. Zero rate admits
// immediately. The burst is one second of tokens, so a paced scrub can
// absorb one segment-sized read without sleeping between every blob.
type throttle struct {
	rate float64 // tokens (bytes) per second; <= 0 is unpaced

	mu     sync.Mutex
	tokens float64
	last   time.Time
}

// acquire blocks on clk until n tokens are available, consuming them.
// The wait honors ctx.
func (t *throttle) acquire(ctx context.Context, clk *sim.Clock, n int) error {
	if t.rate <= 0 {
		return nil
	}
	for {
		t.mu.Lock()
		now := clk.Now()
		if !t.last.IsZero() {
			t.tokens += now.Sub(t.last).Seconds() * t.rate
		}
		t.last = now
		if burst := t.rate; t.tokens > burst {
			t.tokens = burst
		}
		if t.tokens >= float64(n) {
			t.tokens -= float64(n)
			t.mu.Unlock()
			return nil
		}
		need := (float64(n) - t.tokens) / t.rate
		t.mu.Unlock()
		wait := time.Duration(need * float64(time.Second))
		if wait < time.Millisecond {
			wait = time.Millisecond
		}
		if err := clk.Sleep(ctx, wait); err != nil {
			return err
		}
	}
}
