package storage

import (
	"repro/internal/obs/metrics"
	"repro/internal/sim"
)

// ReadStats is the one declaration of the object store's recovery,
// hedge and self-healing counters. A value of it is an account: every
// ObjectStore.Read adds what the read cost beyond its clean payload to
// the account its caller passed and to the store's lifetime total
// (ObjectStore.Totals), so a query's numbers are its own however many
// queries share the store, and all callers' accounts sum to the total.
// A clean read leaves it all-zero. A new counter is a field here, a
// line in Add, a line in Each, and the site that counts it.
type ReadStats struct {
	// Retries is the read attempts repeated after a transient fault
	// and, in a scan's account, the segment re-reads after a checksum
	// failure downstream of the store.
	Retries int64
	// ReplicaFallbacks is the reads that moved past the first-choice
	// replica; RetryBytes the payload repeated and fallback reads
	// returned — availability is not free, and E19 reports it.
	ReplicaFallbacks int64
	RetryBytes       sim.Bytes

	// HedgedReads is the reads that launched a second-replica hedge
	// after the primary stalled past its health threshold; HedgeWins
	// those whose hedge was the copy returned. HedgeOps and HedgeBytes
	// are the hedge side's attempts and payload, win or lose: the main
	// Meter never includes them.
	HedgedReads int64
	HedgeWins   int64
	HedgeOps    int64
	HedgeBytes  sim.Bytes

	// CorruptReads is the payloads discarded because they failed
	// Verify, with the attempts and bytes behind them — also kept off
	// the main Meter, which charges only the clean payload consumed.
	CorruptReads int64
	CorruptOps   int64
	CorruptBytes sim.Bytes
	// ReadRepairs is the replica blobs overwritten with known-good
	// bytes and RepairBytes the volume written: in a caller's account
	// the read-repair write-backs its reads triggered, in the lifetime
	// total those plus the background repairs (RepairReplica).
	ReadRepairs int64
	RepairBytes sim.Bytes
	// ScrubReads and ScrubBytes are the raw replica reads of the
	// scrubber and re-replication (ReadReplicaRaw): lifetime total only.
	ScrubReads int64
	ScrubBytes sim.Bytes
	// LostReads is the reads that found a replica slot empty.
	LostReads int64
	// BreakerTrips is the replica circuit breakers a corrupt or lost
	// read of this account opened: the trip is counted where it
	// happens, on the read whose failure crossed the threshold.
	BreakerTrips int64

	// RetryBudgetExhausted is the retries, hedges and speculative
	// morsels the shared retry budget denied — the back-pressure that
	// keeps a fault storm from becoming a retry storm.
	RetryBudgetExhausted int64
}

// Add folds o into s, counter by counter.
func (s *ReadStats) Add(o ReadStats) {
	s.Retries += o.Retries
	s.ReplicaFallbacks += o.ReplicaFallbacks
	s.RetryBytes += o.RetryBytes
	s.HedgedReads += o.HedgedReads
	s.HedgeWins += o.HedgeWins
	s.HedgeOps += o.HedgeOps
	s.HedgeBytes += o.HedgeBytes
	s.CorruptReads += o.CorruptReads
	s.CorruptOps += o.CorruptOps
	s.CorruptBytes += o.CorruptBytes
	s.ReadRepairs += o.ReadRepairs
	s.RepairBytes += o.RepairBytes
	s.ScrubReads += o.ScrubReads
	s.ScrubBytes += o.ScrubBytes
	s.LostReads += o.LostReads
	s.BreakerTrips += o.BreakerTrips
	s.RetryBudgetExhausted += o.RetryBudgetExhausted
}

// Each calls fn once per counter, in declaration order, with the name
// the counter has everywhere it is reported: under "metrics" in dfbench
// -json, as scan.<name> and storage.<name> in the metrics registry, and
// on the stats lines dfquery and dfshell print.
func (s *ReadStats) Each(fn func(name string, v int64)) {
	fn("retries", s.Retries)
	fn("replicaFallbacks", s.ReplicaFallbacks)
	fn("retryBytes", int64(s.RetryBytes))
	fn("hedgedReads", s.HedgedReads)
	fn("hedgeWins", s.HedgeWins)
	fn("hedgeOps", s.HedgeOps)
	fn("hedgeBytes", int64(s.HedgeBytes))
	fn("corruptReads", s.CorruptReads)
	fn("corruptOps", s.CorruptOps)
	fn("corruptBytes", int64(s.CorruptBytes))
	fn("readRepairs", s.ReadRepairs)
	fn("repairBytes", int64(s.RepairBytes))
	fn("scrubReads", s.ScrubReads)
	fn("scrubBytes", int64(s.ScrubBytes))
	fn("lostReads", s.LostReads)
	fn("breakerTrips", s.BreakerTrips)
	fn("retryBudgetExhausted", s.RetryBudgetExhausted)
}

// publish adds the non-zero counters to the registry (nil is off) as
// <prefix><name>.
func (s *ReadStats) publish(m *metrics.Registry, prefix string) {
	if m == nil {
		return
	}
	s.Each(func(name string, v int64) {
		if v != 0 {
			m.Counter(prefix + name).Add(v)
		}
	})
}
