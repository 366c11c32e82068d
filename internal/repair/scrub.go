package repair

import (
	"context"

	"repro/internal/morsel"
	"repro/internal/resilience"
	"repro/internal/storage"
)

// ScrubSummary reports one scrub pass's findings.
type ScrubSummary struct {
	// Clean counts replica blobs that verified clean.
	Clean int
	// Corrupt counts blobs confirmed damaged (persistent verdicts).
	Corrupt int
	// Healed counts damaged blobs repaired from a clean sibling.
	Healed int
	// Lost counts empty replica slots encountered (re-replication's
	// job, not the scrubber's).
	Lost int
}

// ScrubPass walks every object's every replica once, verifying stored
// checksums under the scrub byte budget and the SLO burn-rate gate. A
// blob that fails verification gets a transient verdict and an
// immediate re-read; only a second failure escalates to persistent and
// triggers a repair from a clean sibling. The pass is cut short by ctx.
func (c *Controller) ScrubPass(ctx context.Context) ScrubSummary {
	var sum ScrubSummary
	if c == nil || c.store == nil {
		return sum
	}
	for _, key := range c.store.List("") {
		n := c.store.ReplicaCount(key)
		for r := 0; r < n; r++ {
			if err := c.admitQuantum(ctx); err != nil {
				return sum
			}
			if size := c.store.Size(key); size > 0 {
				if err := c.scrubTokens.acquire(ctx, c.store.Services().Clock, int(size)); err != nil {
					return sum
				}
			}
			data, err := c.store.ReadReplicaRaw(ctx, key, r)
			if err != nil {
				if _, lost := err.(*storage.ReplicaLostError); lost {
					// The store already struck the replica's health and
					// breaker; ReclonePass owns the recovery.
					sum.Lost++
				}
				if ctx != nil && ctx.Err() != nil {
					return sum
				}
				continue
			}
			if c.verify(key, data) == nil {
				c.scrubbed.Add(1)
				sum.Clean++
				continue
			}
			// First strike: a transient verdict. Re-read before treating
			// the damage as real — at-rest corruption survives a re-read,
			// an in-flight flip does not.
			c.record(Incident{Key: key, Replica: r, Verdict: VerdictTransient})
			again, err := c.store.ReadReplicaRaw(ctx, key, r)
			if err == nil && c.verify(key, again) == nil {
				c.scrubbed.Add(1)
				sum.Clean++
				continue
			}
			sum.Corrupt++
			found, wrote := c.healBlob(ctx, key, r, n)
			if !found {
				c.unrecoverable.Add(1)
				c.record(Incident{Key: key, Replica: r, Verdict: VerdictUnrecoverable})
				continue
			}
			if wrote {
				c.scrubRepairs.Add(1)
				sum.Healed++
			}
			c.record(Incident{Key: key, Replica: r, Verdict: VerdictPersistent, Healed: wrote})
		}
	}
	return sum
}

// healBlob repairs replica r of key from the first sibling replica that
// serves a verified-clean blob, paying the repair byte budget. found
// reports whether such a sibling was read, wrote whether the repair was
// written: a heal that a concurrent read-repair already wrote, or one cut
// short by ctx, writes nothing and is nobody's to count.
func (c *Controller) healBlob(ctx context.Context, key string, r, n int) (found, wrote bool) {
	for rr := 0; rr < n; rr++ {
		if rr == r {
			continue
		}
		src, err := c.store.ReadReplicaRaw(ctx, key, rr)
		if err != nil || c.verify(key, src) != nil {
			continue
		}
		if err := c.repairTokens.acquire(ctx, c.store.Services().Clock, len(src)); err != nil {
			return true, false
		}
		wrote, _ = c.store.RepairReplica(ctx, key, r, src)
		return true, wrote
	}
	return false, false
}

// ReclonePass checks for lost replicas and re-clones the ones declared
// dead. A replica is declared dead once its blobs have been lost for
// DeadAfter and — when a breaker set is wired — its breaker is open:
// breakers open from real failed reads (foreground or scrub), so a
// replica nobody can read for the deadline is what "permanently dead"
// means here. Re-cloning copies every lost blob from a verified-clean
// survivor, paced by the repair budget and the burn-rate gate, and
// records the completed restoration's MTTR.
func (c *Controller) ReclonePass(ctx context.Context) {
	if c == nil || c.store == nil {
		return
	}
	_, slots := c.store.UnderReplicated()
	now := c.store.Services().Clock.Now()

	c.mu.Lock()
	for r := range slots {
		if _, seen := c.lostSince[r]; !seen {
			c.lostSince[r] = now
		}
	}
	for r := range c.lostSince {
		if slots[r] == 0 {
			delete(c.lostSince, r) // recovered (or never really lost)
			delete(c.deadAt, r)
		}
	}
	var dead []int
	for r, since := range c.lostSince {
		if _, already := c.deadAt[r]; already {
			dead = append(dead, r) // still mid-restore from a prior pass
			continue
		}
		if now.Sub(since) < c.cfg.DeadAfter {
			continue
		}
		if pol := c.store.Services().Resilience; pol != nil && pol.Breakers != nil &&
			pol.Breakers.State(storage.ReplicaKey(r)) != resilience.Open {
			continue // deadline passed but reads have not condemned it yet
		}
		c.deadAt[r] = since
		dead = append(dead, r)
		c.deadDeclared.Add(1)
		// c.mu is held: append to the ledger directly, record would
		// self-deadlock.
		c.ledger = append(c.ledger, Incident{Key: "*", Replica: r, Verdict: VerdictLost})
	}
	c.mu.Unlock()

	for _, r := range dead {
		c.recloneReplica(ctx, r)
	}
}

// recloneReplica restores every lost blob of replica r from clean
// survivors, Streams blobs at a time through the morsel loop. On full
// restoration it records the MTTR (first loss observation to now) and
// forgives the replica's health strikes.
func (c *Controller) recloneReplica(ctx context.Context, r int) {
	if ctx == nil {
		ctx = context.Background()
	}
	keys := c.store.List("")
	s := morsel.Start(ctx, 0, len(keys), max(c.cfg.Streams, 1), func(ctx context.Context, i, _ int) struct{} {
		c.recloneBlob(ctx, keys[i], r)
		return struct{}{}
	})
	for _, ok := s.Next(); ok; _, ok = s.Next() {
	}
	s.Stop(func(struct{}) {})

	_, slots := c.store.UnderReplicated()
	if slots[r] != 0 {
		return // incomplete (cancelled or sources missing): retry next pass
	}
	c.mu.Lock()
	since, ok := c.deadAt[r]
	if ok {
		c.lastMTTR = c.store.Services().Clock.Since(since)
		delete(c.deadAt, r)
		delete(c.lostSince, r)
	}
	c.mu.Unlock()
	if !ok {
		return
	}
	if pol := c.store.Services().Resilience; pol != nil {
		pol.Health.ClearCorrupt(storage.ReplicaKey(r))
		// The replica holds freshly written, verified bytes: close its
		// breaker now instead of waiting out the cooldown.
		pol.Breakers.Reset(storage.ReplicaKey(r))
	}
}

// recloneBlob restores replica r of key if (and only if) it is lost,
// healing it from the first verified-clean survivor.
func (c *Controller) recloneBlob(ctx context.Context, key string, r int) {
	n := c.store.ReplicaCount(key)
	if r >= n {
		return
	}
	if err := c.admitQuantum(ctx); err != nil {
		return
	}
	if _, err := c.store.ReadReplicaRaw(ctx, key, r); err == nil {
		return // slot is healthy; nothing to restore
	} else if _, lost := err.(*storage.ReplicaLostError); !lost {
		return
	}
	switch found, wrote := c.healBlob(ctx, key, r, n); {
	case wrote:
		c.recloned.Add(1)
	case !found:
		c.unrecoverable.Add(1)
		c.record(Incident{Key: key, Replica: r, Verdict: VerdictUnrecoverable})
	}
}
