package storage

import (
	"bytes"
	"context"
	"fmt"

	"repro/internal/faults"
	"repro/internal/sim"
)

// This file is the object store's self-healing surface: integrity
// verification of read payloads, read-repair write-back of known-good
// bytes over damaged replicas, raw per-replica access for the
// background scrubber, and replica loss/restoration for re-replication.
// All of it is off by default — Verify nil, WriteBack false,
// RepairContention zero — and the foreground read path pays nothing
// until a repair controller switches it on.

// ReplicaCorruptError reports a read whose payload failed integrity
// verification: the serving replica's stored bytes are damaged.
// Re-reading the same replica returns the same bytes, so the error is
// permanent for that replica; recovery is another replica or a repair.
type ReplicaCorruptError struct {
	Key     string
	Replica int
}

// Error renders the failure.
func (e *ReplicaCorruptError) Error() string {
	return fmt.Sprintf("storage: replica %d of %q failed integrity verification", e.Replica, e.Key)
}

// ReplicaLostError reports a read that found a replica slot empty: the
// replica's device died and the blob went with it. Only re-replication
// recovers it.
type ReplicaLostError struct {
	Key     string
	Replica int
}

// Error renders the failure.
func (e *ReplicaLostError) Error() string {
	return fmt.Sprintf("storage: replica %d of %q is lost", e.Replica, e.Key)
}

// verifyPayload checks a successful read's payload against Verify. On
// failure the attempt chain's ops and bytes go to the corrupt-side
// counters (the caller keeps them off the main Meter), the replica is
// struck (strikeReplica), and a ReplicaCorruptError is returned. A nil
// Verify accepts everything at zero cost.
func (o *ObjectStore) verifyPayload(key string, r int, data []byte, ops int64, rs *ReadStats) error {
	if o.Verify == nil || o.Verify(key, data) == nil {
		return nil
	}
	rs.CorruptReads++
	rs.CorruptOps += ops
	rs.CorruptBytes += sim.Bytes(len(data))
	o.strikeReplica(r, rs)
	return &ReplicaCorruptError{Key: key, Replica: r}
}

// noteLost records a read that hit an empty replica slot and strikes
// the replica, so steering avoids the dead replica and the repair
// controller sees its breaker open.
func (o *ObjectStore) noteLost(r int, rs *ReadStats) {
	rs.LostReads++
	o.strikeReplica(r, rs)
}

// strikeReplica marks replica r bad in the health tracker and feeds its
// breaker a failure; a breaker this failure opens is a trip on the
// read's account.
func (o *ObjectStore) strikeReplica(r int, rs *ReadStats) {
	if pol := o.svc.Resilience; pol != nil {
		pol.Health.MarkCorrupt(ReplicaKey(r))
		if pol.Breakers.Failure(ReplicaKey(r), o.svc.Clock.Now()) {
			rs.BreakerTrips++
		}
	}
}

// repairBad write-backs the verified-clean payload over every replica
// in bad. The compare-and-write runs under the store lock, so exactly
// one writer repairs each damaged blob no matter how many concurrent
// reads detected it — later callers find the bytes already equal and
// skip. Lost (nil) slots are left for re-replication. No-op unless
// WriteBack is on; the common clean-read case costs one nil check.
func (o *ObjectStore) repairBad(key string, bad []int, clean []byte, rs *ReadStats) {
	if len(bad) == 0 || !o.WriteBack {
		return
	}
	var healed []int
	o.mu.Lock()
	copies, ok := o.objects[key]
	if ok {
		var next [][]byte // cloned lazily on first actual write
		for _, r := range bad {
			if r < 0 || r >= len(copies) || copies[r] == nil {
				continue
			}
			cur := copies[r]
			if next != nil {
				cur = next[r]
			}
			if bytes.Equal(cur, clean) {
				continue // a concurrent reader already repaired it
			}
			if next == nil {
				next = append([][]byte(nil), copies...)
			}
			next[r] = append(make([]byte, 0, len(clean)), clean...)
			delete(o.stickyDamaged, stickyKey(key, r))
			healed = append(healed, r)
		}
		if next != nil {
			o.objects[key] = next
		}
	}
	o.mu.Unlock()
	for _, r := range healed {
		o.finishRepair(key, r, sim.Bytes(len(clean)), true, rs)
	}
}

// finishRepair lands the accounting of one completed replica repair:
// repair counters, integrity-strike forgiveness and — for foreground
// read-repairs only — the controller's OnRepair hook (background heals
// are already on the controller's own ledger).
func (o *ObjectStore) finishRepair(key string, r int, n sim.Bytes, foreground bool, rs *ReadStats) {
	rs.ReadRepairs++
	rs.RepairBytes += n
	if pol := o.svc.Resilience; pol != nil {
		pol.Health.ClearCorrupt(ReplicaKey(r))
	}
	if foreground && o.OnRepair != nil {
		o.OnRepair(key, r)
	}
}

// stickyKey names one replica blob in the sticky-damage dedup set.
func stickyKey(key string, r int) string {
	return fmt.Sprintf("%d|%s", r, key)
}

// clearStickyLocked drops every sticky-damage record of key — a fresh
// Put or a Delete discards the damaged blobs, so a surviving record
// would wrongly suppress future damage to the new object. Callers hold
// o.mu; the map is almost always nil or tiny.
func (o *ObjectStore) clearStickyLocked(key string) {
	if len(o.stickyDamaged) == 0 {
		return
	}
	suffix := "|" + key
	for sk := range o.stickyDamaged {
		if len(sk) > len(suffix) && sk[len(sk)-len(suffix):] == suffix {
			delete(o.stickyDamaged, sk)
		}
	}
}

// damageReplica applies StickyCorrupt to the stored blob of replica r:
// the middle byte of a fresh copy is flipped and the copy replaces the
// stored slice (readers holding the old slice are unaffected — the
// damage lands on the *next* read). Damage is applied at most once per
// blob until a repair clears it, so an unexhausted fault point cannot
// flip the byte back to clean. Returns the blob now stored (nil when the
// key or replica is absent or lost) and whether this call damaged it.
func (o *ObjectStore) damageReplica(key string, r int) (stored []byte, applied bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	copies, ok := o.objects[key]
	if !ok || r < 0 || r >= len(copies) || len(copies[r]) == 0 {
		return nil, false
	}
	sk := stickyKey(key, r)
	if o.stickyDamaged == nil {
		o.stickyDamaged = make(map[string]struct{})
	}
	if _, done := o.stickyDamaged[sk]; done {
		return copies[r], false // already damaged: serve the stored damage
	}
	damaged := append(make([]byte, 0, len(copies[r])), copies[r]...)
	damaged[len(damaged)/2] ^= 0x40
	next := append([][]byte(nil), copies...)
	next[r] = damaged
	o.objects[key] = next
	o.stickyDamaged[sk] = struct{}{}
	return damaged, true
}

// CorruptReplica deterministically damages the stored blob of replica r
// under key exactly as a StickyCorrupt fire would — the test and
// experiment hook for seeding latent damage without an injector.
// Reports whether damage was applied (false if the key or replica is
// absent, lost, or already damaged).
func (o *ObjectStore) CorruptReplica(key string, r int) bool {
	_, applied := o.damageReplica(key, r)
	return applied
}

// FailReplica kills replica r across every stored object — the device
// behind the slot died and its blobs are gone. Reads fall back to the
// surviving replicas; the data stays at reduced redundancy until
// re-replication restores it. Returns how many blobs were lost.
func (o *ObjectStore) FailReplica(r int) int {
	o.mu.Lock()
	defer o.mu.Unlock()
	lost := 0
	for key, copies := range o.objects {
		if r < 0 || r >= len(copies) || copies[r] == nil {
			continue
		}
		next := append([][]byte(nil), copies...)
		next[r] = nil
		o.objects[key] = next
		delete(o.stickyDamaged, stickyKey(key, r))
		lost++
	}
	return lost
}

// ReplicaCount reports how many replica slots (healthy or lost) the
// object under key has, or 0 if the key is absent.
func (o *ObjectStore) ReplicaCount(key string) int {
	o.mu.RLock()
	defer o.mu.RUnlock()
	return len(o.objects[key])
}

// UnderReplicated reports the store's durability exposure: how many
// objects are missing at least one replica, and the count of lost blobs
// per replica index. Both are zero on a healthy store.
func (o *ObjectStore) UnderReplicated() (objects int, slots map[int]int) {
	o.mu.RLock()
	defer o.mu.RUnlock()
	for _, copies := range o.objects {
		short := false
		for r, d := range copies {
			if d == nil {
				if slots == nil {
					slots = make(map[int]int)
				}
				slots[r]++
				short = true
			}
		}
		if short {
			objects++
		}
	}
	return objects, slots
}

// ReadReplicaRaw reads replica r's stored bytes for integrity checking
// — the scrubber's and re-replication's read primitive. It is metered
// on the scrub counters, never the main Meter, takes BaseLatency of
// wall clock while holding a repair-load slot (so foreground reads feel
// the contention when RepairContention is set), and consults the
// StickyCorrupt fault point like any other access, so latent damage
// surfaces under the scrubber's light. The returned slice is the stored
// blob itself: callers must not modify it.
func (o *ObjectStore) ReadReplicaRaw(ctx context.Context, key string, r int) ([]byte, error) {
	o.mu.RLock()
	copies, ok := o.objects[key]
	o.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("storage: object %q not found", key)
	}
	if r < 0 || r >= len(copies) {
		return nil, fmt.Errorf("storage: object %q has no replica %d", key, r)
	}
	o.repairLoad.Add(1)
	defer o.repairLoad.Add(-1)
	if err := o.svc.Clock.Sleep(ctx, o.BaseLatency); err != nil {
		return nil, err
	}
	data := copies[r]
	if o.svc.Faults != nil && o.svc.Faults.Fire(faults.StickyCorrupt, ReplicaKey(r)+"/"+key) {
		if stored, _ := o.damageReplica(key, r); stored != nil {
			data = stored
		}
	}
	rs := ReadStats{ScrubReads: 1, ScrubBytes: sim.Bytes(len(data))}
	var err error
	if data == nil {
		o.noteLost(r, &rs)
		err = &ReplicaLostError{Key: key, Replica: r}
	}
	o.fold(&rs, nil)
	return data, err
}

// RepairReplica overwrites replica r's blob under key with data — the
// write half of scrub repair and re-replication. The write is metered
// on the repair counters, never the main Meter, and takes BaseLatency
// on the store's clock while holding a repair-load slot. Writing into a lost
// (nil) slot restores it, raising the object's redundancy back up.
func (o *ObjectStore) RepairReplica(ctx context.Context, key string, r int, data []byte) error {
	o.repairLoad.Add(1)
	defer o.repairLoad.Add(-1)
	if err := o.svc.Clock.Sleep(ctx, o.BaseLatency); err != nil {
		return err
	}
	o.mu.Lock()
	copies, ok := o.objects[key]
	if !ok {
		o.mu.Unlock()
		return fmt.Errorf("storage: object %q not found", key)
	}
	if r < 0 || r >= len(copies) {
		o.mu.Unlock()
		return fmt.Errorf("storage: object %q has no replica %d", key, r)
	}
	if bytes.Equal(copies[r], data) {
		o.mu.Unlock()
		return nil // already healthy: a concurrent repair got here first
	}
	next := append([][]byte(nil), copies...)
	next[r] = append(make([]byte, 0, len(data)), data...)
	o.objects[key] = next
	delete(o.stickyDamaged, stickyKey(key, r))
	o.mu.Unlock()
	var rs ReadStats
	o.finishRepair(key, r, sim.Bytes(len(data)), false, &rs)
	o.fold(&rs, nil)
	return nil
}
