package storage

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faults"
	"repro/internal/resilience"
	"repro/internal/sim"
	"repro/internal/wiring"
)

// ObjectStore is the cloud object store: a flat key space of immutable
// blobs. The paper stresses that real cloud storage is object storage,
// not block devices (Section 3.2); the engine's tables live here as
// marshalled segments.
//
// Availability machinery: Put writes Replicas independent copies of each
// blob and Get falls back across them, retrying transient faults through
// resilience.Retry, as the storage server's corrupt-segment re-read does.
// The wired fault injector, when set, injects read-path faults (transient
// errors, corrupt blobs, missing objects, degraded replicas) so
// experiments can measure that recovery.
//
// Gray-failure machinery: BaseLatency models the healthy per-read
// service time, which DegradedDevice faults stretch per replica. With a
// resilience policy wired, reads prefer the healthiest replica (EWMA
// latency ranking), retries spend from its budget and, with its Hedge
// set, a read races a second replica after a deviation-scaled delay —
// taking the first success and cancelling the loser. Hedge-side work is
// metered separately (ReadStats.HedgeOps and HedgeBytes), so the main
// Meter's totals are identical whether or not a losing hedge ran.
type ObjectStore struct {
	mu      sync.RWMutex
	objects map[string][][]byte // one entry per replica, len >= 1
	reps    int
	Meter   sim.Meter

	// svc is the wiring point the store was built on, never nil; the
	// storage server and the repair controller reach it through here.
	// The store reads Faults and Resilience as above, sleeps its service
	// times and backoffs and times its hedge and health observations on
	// Clock, and mirrors every read's non-zero ReadStats counters into
	// Metrics as storage.<name> when the read returns, so a live scrape
	// sees defensive and repair work without waiting for a query's
	// ExecStats.
	svc *wiring.Services

	// BaseLatency is the healthy service time of one replica read, slept
	// on the store's clock. Zero (the default) keeps reads instantaneous;
	// experiments that measure tail latency set it so DegradedDevice
	// multipliers have a base to stretch.
	BaseLatency time.Duration
	// MaxRetries bounds the per-replica retries of a transient read
	// fault before falling back to the next replica, and a scan's
	// re-reads of a segment that fails its checksum; 0 disables retry,
	// modelling a legacy detect-only store.
	MaxRetries int
	// RetryBase is the first retry's backoff; it doubles per attempt and
	// is capped at 8x. Zero skips the sleep but still counts retries.
	RetryBase time.Duration

	// Verify, when set, checks every successful read's payload before it
	// is returned: a non-nil error marks the serving replica corrupt,
	// the payload is discarded onto the corrupt-side meters (never the
	// main Meter) and the read falls back to the next replica. Nil (the
	// default) keeps the store integrity-blind, deferring detection to
	// downstream checksums as before.
	Verify func(key string, data []byte) error
	// WriteBack enables read-repair: after a read that rejected one or
	// more corrupt replicas succeeds, the known-good payload is written
	// back over each damaged replica, metered as repair bytes. Off, the
	// store only detects and routes around — the damage persists.
	WriteBack bool
	// RepairContention stretches foreground replica reads while repair
	// I/O (scrub reads, write-backs, re-clones) is in flight on the
	// store: each in-flight repair op adds RepairContention x
	// BaseLatency to a read's service time, modelling the shared device
	// queue behind both traffic classes. Zero (the default) makes repair
	// I/O free, which is the pre-repair behaviour.
	RepairContention float64
	// OnRepair, when set, observes each completed *foreground*
	// read-repair write-back with the object key and the replica index
	// healed — the repair controller's ledger hook for heals it cannot
	// see itself. Background repairs through RepairReplica (scrub heals,
	// re-clones) do not fire it: the controller already counts those on
	// its own ledger. Must be safe for concurrent use.
	OnRepair func(key string, replica int)

	// total is every finished read's and background repair I/O's
	// ReadStats, summed (see fold).
	statsMu sync.Mutex
	total   ReadStats

	// repairLoad is the number of repair I/Os in flight right now.
	repairLoad atomic.Int64

	// stickyDamaged dedups StickyCorrupt damage per replica blob so a
	// point with budget left cannot flip the same byte back to clean;
	// repair write-backs clear the entry. Guarded by mu.
	stickyDamaged map[string]struct{}
}

// DefaultMaxRetries is the retry bound of a freshly built store.
const DefaultMaxRetries = 3

// NewObjectStore returns an empty single-replica store that reads its
// optional subsystems from svc. A nil svc (a store outside any engine)
// gets an empty one of its own: everything off.
func NewObjectStore(svc *wiring.Services) *ObjectStore {
	if svc == nil {
		svc = new(wiring.Services)
	}
	return &ObjectStore{
		svc:        svc,
		objects:    make(map[string][][]byte),
		reps:       1,
		MaxRetries: DefaultMaxRetries,
		RetryBase:  50 * time.Microsecond,
	}
}

// Services returns the wiring point the store reads its metrics
// registry, resilience policy, fault injector and clock from.
func (o *ObjectStore) Services() *wiring.Services { return o.svc }

// SetReplicas sets the replication factor for future Puts (clamped to at
// least 1). Existing objects keep their current replica count.
func (o *ObjectStore) SetReplicas(n int) {
	if n < 1 {
		n = 1
	}
	o.mu.Lock()
	o.reps = n
	o.mu.Unlock()
}

// Put stores a blob under key, replacing any previous value. The write
// fans out to Replicas independent copies; metering charges one op and
// every replicated byte, so replication's cost shows up in the meters.
// Put copies its input, so the caller may reuse data.
func (o *ObjectStore) Put(key string, data []byte) {
	// Never store a nil slice: a nil replica slot means the replica is
	// lost (FailReplica), and an empty object must stay readable.
	o.install(key, append(make([]byte, 0, len(data)), data...))
}

// install is Put that keeps data itself as replica 0; replicas 1…n−1
// are still copies. The store owns data from here, and nobody may write
// through it again: Server.AppendSummary hands over a fresh blob.
func (o *ObjectStore) install(key string, data []byte) {
	o.mu.Lock()
	n := o.reps
	copies := make([][]byte, n)
	copies[0] = data
	for i := 1; i < n; i++ {
		copies[i] = append(make([]byte, 0, len(data)), data...)
	}
	o.objects[key] = copies
	o.clearStickyLocked(key)
	o.mu.Unlock()
	o.Meter.AddOps(1)
	o.Meter.AddBytes(sim.Bytes(len(data) * n))
}

// Get returns a defensive copy of the blob stored under key; callers may
// mutate the result freely. Reads fall back across replicas and retry
// transient faults (readLoop); a done ctx cuts a backoff short.
func (o *ObjectStore) Get(ctx context.Context, key string) ([]byte, error) {
	return o.Read(ctx, key, true, nil)
}

// GetNoCopy is the metered hot path: it returns the stored slice itself,
// which the caller must not modify. Recovery behaviour matches Get.
//
// Stored blobs are immutable: Put, read-repair, RepairReplica and
// injected damage each install a fresh copy under the lock, the blob a
// segment writer hands to install is never written again, and nothing
// writes through a slice already stored, so the slice returned here — and
// any segment view opened over it (UnmarshalSegment) — stays intact for
// as long as the caller holds it, whatever happens to the key meanwhile.
func (o *ObjectStore) GetNoCopy(ctx context.Context, key string) ([]byte, error) {
	return o.Read(ctx, key, false, nil)
}

// ReplicaKey names replica r for fault targeting ("store/r<i>/<key>" is
// what gray-failure points match against), health tracking and breakers.
func ReplicaKey(r int) string {
	return fmt.Sprintf("store/r%d", r)
}

// singleReplica is the shared read order of every single-replica store;
// it is never mutated (Rank only reorders slices of length >= 2), so
// the hot path stays allocation-free when replication is off.
var singleReplica = []int{0}

// replicaOrder returns the replica indices to try, healthiest first
// when health tracking is on and natural order otherwise.
func (o *ObjectStore) replicaOrder(n int) []int {
	if n == 1 {
		return singleReplica
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	pol := o.svc.Resilience
	if pol == nil || pol.Health == nil || n < 2 {
		return order
	}
	keys := make([]string, n)
	byKey := make(map[string]int, n)
	for i := range keys {
		keys[i] = ReplicaKey(i)
		byKey[keys[i]] = i
	}
	for i, k := range pol.Health.Rank(keys) {
		order[i] = byKey[k]
	}
	return order
}

// Read is Get (copyOut) or GetNoCopy with an account. Whatever the read
// cost beyond its clean payload — retries, fallbacks, hedges, discarded
// corrupt payloads, read-repairs, budget denials — is counted in a
// local ReadStats while the read runs and lands once, when it returns,
// on the store's lifetime total and on acct (nil: nobody's). Only the
// calling goroutine ever writes acct.
func (o *ObjectStore) Read(ctx context.Context, key string, copyOut bool, acct *ReadStats) ([]byte, error) {
	o.mu.RLock()
	copies, ok := o.objects[key]
	o.mu.RUnlock()
	if !ok {
		// The object genuinely does not exist on any replica: permanent.
		return nil, fmt.Errorf("storage: object %q not found", key)
	}
	var rs ReadStats
	data, err := o.getHedged(ctx, key, copies, o.replicaOrder(len(copies)), copyOut, &rs)
	o.fold(&rs, acct)
	return data, err
}

// fold lands one finished read's (or one background repair I/O's)
// counters on the lifetime total, the caller's account and the
// registry. A clean read has nothing to land and takes no lock.
func (o *ObjectStore) fold(rs, acct *ReadStats) {
	if *rs == (ReadStats{}) {
		return
	}
	o.statsMu.Lock()
	o.total.Add(*rs)
	o.statsMu.Unlock()
	if acct != nil {
		acct.Add(*rs)
	}
	rs.publish(o.svc.Metrics, "storage.")
}

// Totals returns the store's lifetime ReadStats: every caller's account
// plus the background repair I/O no caller owns.
func (o *ObjectStore) Totals() ReadStats {
	o.statsMu.Lock()
	defer o.statsMu.Unlock()
	return o.total
}

// seqRead walks the replicas in order, running the full retry loop
// against each. allFallback marks every replica as a fallback (the
// hedge path's tail, where order excludes the replicas already raced);
// bad carries replica indices already known corrupt from an earlier
// race, so the eventual clean payload can repair them too. A replica
// whose payload fails Verify joins bad and the walk continues — its
// attempts and bytes land on the corrupt-side counters, never the main
// Meter — and once any replica serves a verified payload, every replica
// in bad is repaired from it.
func (o *ObjectStore) seqRead(ctx context.Context, key string, copies [][]byte, order []int, copyOut, allFallback bool, bad []int, rs *ReadStats) ([]byte, error) {
	var lastErr error
	for i, r := range order {
		fallback := i > 0 || allFallback
		if fallback {
			rs.ReplicaFallbacks++
		}
		data, ops, err := o.readLoop(ctx, key, r, copies[r], copyOut, fallback, true, rs)
		if err == nil {
			if err = o.verifyPayload(key, r, data, ops, rs); err == nil {
				o.Meter.Add(sim.Snapshot{Bytes: sim.Bytes(len(data)), Ops: ops})
				o.repairBad(key, bad, data, rs)
				return data, nil
			}
			bad = append(bad, r)
		} else {
			o.Meter.AddOps(ops) // a failed chain returned no payload
		}
		lastErr = err
		if ctx != nil && ctx.Err() != nil {
			break // cancelled mid-read: stop burning replicas
		}
	}
	return nil, lastErr
}

// getHedged races the best replica against the second-best through
// resilience.Race: the primary read starts immediately, and if it has
// not completed after a deviation-scaled delay (and the retry budget
// grants a token), the hedge read starts on the next replica. The first
// verified success wins and the loser is cancelled and drained — never
// leaked. Primary-side work lands on the main Meter; hedge-side work
// lands only on the hedge counters, so a losing hedge leaves the main
// Meter byte-identical to an unhedged read. Each racer counts into its
// own ReadStats, added to rs as its result arrives. Without a hedging
// policy or a second replica there is no race, just the walk.
func (o *ObjectStore) getHedged(ctx context.Context, key string, copies [][]byte, order []int, copyOut bool, rs *ReadStats) ([]byte, error) {
	pol := o.svc.Resilience
	if pol == nil || !pol.Hedge || len(order) < 2 {
		return o.seqRead(ctx, key, copies, order, copyOut, false, nil, rs)
	}
	prim, sec := order[0], order[1]

	// The hedge fires at the primary replica's ewma + k*dev when enough
	// history backs it, floored at HedgeMinDelay (and at 2x the healthy
	// service time) so a cold or very tight history cannot double every
	// read.
	delay := pol.HedgeMinDelay
	if d := 2 * o.BaseLatency; d > delay {
		delay = d
	}
	if th, ok := pol.Health.Threshold(ReplicaKey(prim), resilience.HedgeK); ok && th > delay {
		delay = th
	}

	if ctx == nil {
		ctx = context.Background()
	}
	read := func(r int, hedge bool) func(context.Context) raceResult {
		return func(ctx context.Context) raceResult {
			res := raceResult{r: r, hedge: hedge}
			res.data, res.ops, res.err = o.readLoop(ctx, key, r, copies[r], copyOut, false, !hedge, &res.rs)
			return res
		}
	}
	var winner *raceResult
	var lastErr error
	var bad []int // replicas that served corrupt payloads, repaired below
	// A failed racer, or the loser arriving after the winner, is charged
	// as it ran. A payload that fails Verify is rejected onto the
	// corrupt-side counters and its replica joins bad; otherwise it wins
	// — which may well be the race's second finisher, after a corrupt
	// first one was rejected.
	launched, denied := resilience.Race(ctx, o.svc.Clock.After(delay), pol.Budget, read(prim, false), read(sec, true),
		func(res raceResult, _ bool) bool {
			rs.Add(res.rs)
			if winner != nil || res.err != nil {
				lastErr = res.err
				o.chargeRacer(&res, rs)
				return false
			}
			if verr := o.verifyPayload(key, res.r, res.data, res.ops, rs); verr != nil {
				bad = append(bad, res.r)
				lastErr = verr
				return false
			}
			winner = &res
			return true
		})
	if launched {
		rs.HedgedReads++
	}
	if denied {
		rs.RetryBudgetExhausted++
	}
	if winner != nil {
		o.chargeRacer(winner, rs)
		if winner.hedge {
			rs.HedgeWins++
		}
		o.repairBad(key, bad, winner.data, rs)
		return winner.data, nil
	}

	// Both racers failed (or the primary failed before the hedge was
	// worth launching): fall back over the remaining replicas in order.
	rest := order[1:]
	if launched {
		rest = order[2:]
	}
	data, err := o.seqRead(ctx, key, copies, rest, copyOut, true, bad, rs)
	if data == nil && err == nil {
		err = lastErr // no replicas left to walk: surface the race's error
	}
	return data, err
}

// raceResult is one hedged-race participant's outcome: what readLoop
// returned and what it counted.
type raceResult struct {
	data  []byte
	err   error
	ops   int64
	rs    ReadStats
	r     int // replica index that served (or failed) the read
	hedge bool
}

// chargeRacer lands one race participant's attempts and payload:
// primary work on the main Meter, hedge work on the hedge counters.
func (o *ObjectStore) chargeRacer(res *raceResult, rs *ReadStats) {
	if res.hedge {
		rs.HedgeOps += res.ops
		rs.HedgeBytes += sim.Bytes(len(res.data))
		return
	}
	o.Meter.Add(sim.Snapshot{Bytes: sim.Bytes(len(res.data)), Ops: res.ops})
}

// readLoop reads replica r through resilience.Retry and reports how many
// attempts it made; the bytes it moved are those it returns. Transient
// faults are retried, except a missing replica, which will not reappear:
// the walk moves on to the next one. fallback marks reads past the
// first-choice replica (for RetryBytes accounting); countRecovery gates
// Retries so hedge-side retries do not perturb the recovery count of the
// primary path.
func (o *ObjectStore) readLoop(ctx context.Context, key string, r int, data []byte, copyOut, fallback, countRecovery bool, rs *ReadStats) (out []byte, ops int64, err error) {
	retries, denied, err := resilience.Retry(ctx, o.svc.Clock, o.budget(), o.MaxRetries, o.RetryBase, func(n int) (bool, error) {
		ops++
		if out, err = o.readReplica(ctx, key, r, data, copyOut, rs); err != nil {
			fe, isFault := err.(*faults.FaultError)
			return faults.IsTransient(err) && !(isFault && fe.Kind == faults.ObjectMissing), err
		}
		if fallback || n > 0 {
			rs.RetryBytes += sim.Bytes(len(out))
		}
		return false, nil
	})
	if countRecovery {
		rs.Retries += int64(retries)
	}
	if denied {
		rs.RetryBudgetExhausted++
	}
	return out, ops, err
}

// budget is the wired policy's retry budget; nil (every retry granted)
// without a policy.
func (o *ObjectStore) budget() *resilience.Budget {
	if pol := o.svc.Resilience; pol != nil {
		return pol.Budget
	}
	return nil
}

// readReplica is one read attempt against one replica, with faults
// injected between the request and the returned bytes. The healthy
// service time (BaseLatency) plus any injected DegradedDevice stretch
// is slept on the store's clock — gray failures are wall-clock
// phenomena — and the sleep honors ctx so cancelled hedges and expired
// deadlines return immediately.
func (o *ObjectStore) readReplica(ctx context.Context, key string, r int, data []byte, copyOut bool, rs *ReadStats) ([]byte, error) {
	clk := o.svc.Clock
	start := clk.Now()
	delay := o.BaseLatency
	if delay > 0 && o.RepairContention > 0 {
		// Repair I/O shares the device queue: every in-flight repair op
		// stretches this read's service time. This is what an
		// unthrottled re-replication storm does to foreground p99.
		if load := o.repairLoad.Load(); load > 0 {
			delay += time.Duration(float64(o.BaseLatency) * o.RepairContention * float64(load))
		}
	}
	inj := o.svc.Faults
	if inj != nil {
		delay += inj.Slowdown(faults.DegradedDevice, ReplicaKey(r)+"/"+key, o.BaseLatency)
	}
	if err := clk.Sleep(ctx, delay); err != nil {
		// A read cancelled mid-service still taught us something: the
		// replica held the request for at least this long. Feeding that
		// lower bound into the health tracker is what demotes a gray
		// replica whose reads only ever finish by losing hedge races —
		// without it the replica stays unsampled and Rank keeps
		// exploring it first.
		if pol := o.svc.Resilience; pol != nil {
			pol.Health.Observe(ReplicaKey(r), clk.Since(start))
		}
		return nil, err
	}
	if data == nil {
		// The replica slot is empty: its device died and took the blob
		// with it. Feed the loss into the health tracker and breaker so
		// steering avoids the dead replica and the repair controller can
		// declare it dead; only re-replication brings the data back.
		o.noteLost(r, rs)
		return nil, &ReplicaLostError{Key: key, Replica: r}
	}
	if inj != nil {
		if inj.Fire(faults.ObjectMissing, key) {
			return nil, &faults.FaultError{Kind: faults.ObjectMissing, Target: key}
		}
		if inj.Fire(faults.TransientRead, key) {
			return nil, &faults.FaultError{Kind: faults.TransientRead, Target: key}
		}
		if inj.Fire(faults.CorruptBlob, key) {
			// The corruption rides the returned copy, never the stored
			// replica; checksums downstream detect it and a re-read heals.
			cp := append([]byte(nil), data...)
			if len(cp) > 0 {
				cp[len(cp)/2] ^= 0x40
			}
			o.observeRead(r, start)
			return cp, nil
		}
		if inj.Fire(faults.StickyCorrupt, ReplicaKey(r)+"/"+key) {
			// Persistent damage: the stored replica blob itself is
			// flipped, so every later read of this replica — foreground
			// or scrub — sees the same corruption until a repair
			// write-back overwrites it.
			if stored, _ := o.damageReplica(key, r); stored != nil {
				data = stored
			}
		}
	}
	o.observeRead(r, start)
	if copyOut {
		return append([]byte(nil), data...), nil
	}
	return data, nil
}

// observeRead feeds one completed replica read into the health tracker
// and credits the retry budget.
func (o *ObjectStore) observeRead(r int, start time.Time) {
	pol := o.svc.Resilience
	if pol == nil {
		return
	}
	pol.Health.Observe(ReplicaKey(r), o.svc.Clock.Since(start))
	pol.Budget.ObserveOp()
}

// Size returns the byte size of the object under key without charging a
// read, or -1 if absent. Metadata operations are free in the model.
func (o *ObjectStore) Size(key string) sim.Bytes {
	o.mu.RLock()
	defer o.mu.RUnlock()
	copies, ok := o.objects[key]
	if !ok {
		return -1
	}
	for _, d := range copies {
		if d != nil {
			return sim.Bytes(len(d))
		}
	}
	return -1 // every replica lost
}

// Delete removes the object (all replicas) under key; deleting a missing
// key is a no-op. Like Put, it is a metered operation.
func (o *ObjectStore) Delete(key string) {
	o.mu.Lock()
	delete(o.objects, key)
	o.clearStickyLocked(key)
	o.mu.Unlock()
	o.Meter.AddOps(1)
}

// List returns all keys with the given prefix in sorted order.
func (o *ObjectStore) List(prefix string) []string {
	o.mu.RLock()
	defer o.mu.RUnlock()
	var keys []string
	for k := range o.objects {
		if strings.HasPrefix(k, prefix) {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys
}

// TotalBytes reports the cumulative size of all stored objects including
// replica copies — replication's capacity cost.
func (o *ObjectStore) TotalBytes() sim.Bytes {
	o.mu.RLock()
	defer o.mu.RUnlock()
	var n sim.Bytes
	for _, copies := range o.objects {
		for _, d := range copies {
			n += sim.Bytes(len(d))
		}
	}
	return n
}
