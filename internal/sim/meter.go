package sim

import (
	"sync"
)

// Meter accumulates traffic and busy time for one simulated resource
// (a device or a link). All methods are safe for concurrent use; pipeline
// stages run on separate goroutines and charge their own costs.
//
// The counters are guarded by one mutex rather than independent atomics
// so that Snapshot observes a consistent state: a charge that touches
// several counters (Add) is applied indivisibly, and a snapshot taken
// mid-query never mixes the bytes of one charge with the busy time of
// another. The observability layer samples meters while stages are still
// charging, which made the old torn four-load snapshot a real hazard
// rather than a theoretical one.
//
// Concurrency contract (relied on by the morsel-driven worker pools,
// which put many goroutines behind one meter):
//
//   - Every mutation is a commutative addition applied under the lock,
//     so the totals a quiesced meter reports are independent of writer
//     interleaving — seeded parallel runs meter identical byte/busy
//     sums no matter how the scheduler ordered the workers.
//   - Snapshot/Sub deltas are only meaningful when taken from the same
//     goroutine ordering context (before work starts / after the wait
//     group joins); mid-flight snapshots are consistent but may land
//     between any two charges.
//   - Snapshots of several meters are per-meter consistent, not a
//     global cut; cross-meter invariants (e.g. link bytes == downstream
//     device bytes) only hold once the pipeline has quiesced.
type Meter struct {
	mu       sync.Mutex
	bytes    int64 // payload bytes processed or moved
	busy     int64 // virtual nanoseconds of busy time
	ops      int64 // discrete operations (transfers, kernel launches)
	messages int64 // protocol/control messages (credits, invalidations)
}

// Add charges a whole snapshot's worth of counters in one indivisible
// step. Devices and links use it so a single logical charge (bytes +
// busy + op) can never be observed half-applied.
func (m *Meter) Add(s Snapshot) {
	m.mu.Lock()
	m.bytes += int64(s.Bytes)
	m.busy += int64(s.Busy)
	m.ops += s.Ops
	m.messages += s.Messages
	m.mu.Unlock()
}

// AddBytes charges n payload bytes to the meter.
func (m *Meter) AddBytes(n Bytes) {
	m.mu.Lock()
	m.bytes += int64(n)
	m.mu.Unlock()
}

// AddBusy charges t of virtual busy time to the meter.
func (m *Meter) AddBusy(t VTime) {
	m.mu.Lock()
	m.busy += int64(t)
	m.mu.Unlock()
}

// AddOps charges n discrete operations.
func (m *Meter) AddOps(n int64) {
	m.mu.Lock()
	m.ops += n
	m.mu.Unlock()
}

// Bytes reports total payload bytes charged so far.
func (m *Meter) Bytes() Bytes {
	m.mu.Lock()
	defer m.mu.Unlock()
	return Bytes(m.bytes)
}

// Busy reports total virtual busy time charged so far.
func (m *Meter) Busy() VTime {
	m.mu.Lock()
	defer m.mu.Unlock()
	return VTime(m.busy)
}

// Ops reports total discrete operations charged so far.
func (m *Meter) Ops() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.ops
}

// Messages reports total protocol messages charged so far.
func (m *Meter) Messages() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.messages
}

// Reset zeroes all counters.
func (m *Meter) Reset() {
	m.mu.Lock()
	m.bytes, m.busy, m.ops, m.messages = 0, 0, 0, 0
	m.mu.Unlock()
}

// Snapshot is a point-in-time copy of a Meter's counters.
type Snapshot struct {
	Bytes    Bytes
	Busy     VTime
	Ops      int64
	Messages int64
}

// Snapshot returns a consistent copy of the current counters: all four
// are read under one lock, so the result reflects a state the meter
// actually passed through.
func (m *Meter) Snapshot() Snapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	return Snapshot{
		Bytes:    Bytes(m.bytes),
		Busy:     VTime(m.busy),
		Ops:      m.ops,
		Messages: m.messages,
	}
}

// Sub returns the counter deltas s minus prev: one reading against an
// earlier reading of the same counters (a query's account against a
// copy of itself, fabric.Account.Since).
func (s Snapshot) Sub(prev Snapshot) Snapshot {
	return Snapshot{
		Bytes:    s.Bytes - prev.Bytes,
		Busy:     s.Busy - prev.Busy,
		Ops:      s.Ops - prev.Ops,
		Messages: s.Messages - prev.Messages,
	}
}
