// Package flow implements the paper's Section 7.1 execution substrate: a
// push-based pipeline of stages connected by queues with credit-based
// flow control, the way PCIe moves TLPs. Data is processed in one stage
// and sent to the next depending on that stage's queue availability;
// credits flow as a low-traffic counter-stream of control messages.
//
// Stages run on goroutines (the DMA engines and accelerators of the
// model); each port knows the fabric links its traffic crosses and
// charges them for every data batch and credit message, so experiments
// can report both throughput and control-traffic overhead.
package flow

import (
	"errors"
	"fmt"
	"sync/atomic"

	"repro/internal/columnar"
	"repro/internal/fabric"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/obs/metrics"
	"repro/internal/sim"
	"repro/internal/wiring"
)

// ErrCanceled is returned by port operations when the pipeline has been
// torn down due to an error elsewhere.
var ErrCanceled = errors.New("flow: pipeline canceled")

// portItem is one message on a port: a data batch, or (when b is nil) a
// checkpoint marker carrying the epoch number. Markers are punctuation:
// FIFO ordering guarantees that when a marker arrives, every batch of
// its epoch has already arrived, so a stage's state at marker receipt is
// a consistent per-epoch snapshot (Chandy-Lamport on a linear chain).
type portItem struct {
	b     *columnar.Batch
	epoch int
}

// Port is one credit-controlled queue between two pipeline stages.
type Port struct {
	Name string
	// Path lists the fabric links a batch crosses between the stages
	// (possibly empty for on-device handoff). Data transfers charge
	// every link; credit returns charge one control message per link.
	Path []*fabric.Link

	depth       int
	creditBatch int

	ch      chan portItem
	credits chan struct{}
	done    <-chan struct{} // the run context's Done
	// tape is the receiving stage's tape; only the single sending
	// goroutine appends to its Xfers, so no lock is needed. Nil when
	// tracing is off, keeping Send allocation-free.
	tape *obs.StageTape

	pending    atomic.Int64 // credits held back at the receiver
	dataMsgs   atomic.Int64
	creditMsgs atomic.Int64
	markerMsgs atomic.Int64
	bytes      atomic.Int64
	stalls     atomic.Int64 // Sends that found the credit window empty

	// stallCtr mirrors stalls into the fleet registry as they happen;
	// nil (telemetry off) costs nothing.
	stallCtr *metrics.Counter
	// acct is the pipeline's account (nil = meters only): what the
	// port's traffic charges the path's links is recorded on it.
	acct *fabric.Account
	// svc is the run's wiring point, set by Pipeline.Run before any port
	// with a path is used: its fault injector is asked, per data
	// transfer, whether a path link flaps.
	svc *wiring.Services
}

// newPort builds a port of the given depth. The receiver accumulates
// half the depth's worth of consumed credits (at least one) before
// returning them in one control message, so the sender can never starve.
// tape, when non-nil, is the receiving stage's tape; Send appends each
// batch's per-link transfer costs to it.
func newPort(name string, path []*fabric.Link, depth int, done <-chan struct{}, tape *obs.StageTape) *Port {
	if depth < 1 {
		depth = 1
	}
	p := &Port{
		Name:        name,
		Path:        path,
		depth:       depth,
		creditBatch: max(depth/2, 1),
		ch:          make(chan portItem, depth),
		credits:     make(chan struct{}, depth),
		done:        done,
		tape:        tape,
	}
	for i := 0; i < depth; i++ {
		p.credits <- struct{}{}
	}
	return p
}

// Send blocks until a credit is available, then transfers the batch,
// charging every link on the path. An injected fault on any path link
// (faults.LinkFlap, asked of the run's injector) aborts the transfer
// with a LinkError before any credit is consumed or any byte charged.
// A batch carrying a lazy selection vector is compacted first when the
// path crosses any fabric link: shipping dead rows would waste exactly
// the bandwidth late materialization exists to save, and a batch whose
// live rows were copied out is released there (CompactOwned). On-device
// handoff (empty path) keeps the selection lazy.
func (p *Port) Send(b *columnar.Batch) error {
	if len(p.Path) > 0 {
		b = b.CompactOwned()
	}
	for _, l := range p.Path {
		if inj := p.svc.Faults; inj != nil && inj.Fire(faults.LinkFlap, l.Name) {
			return &LinkError{Link: l.Name, Err: &faults.FaultError{Kind: faults.LinkFlap, Target: l.Name}}
		}
	}
	// Take a credit without blocking when one is ready; an empty credit
	// window is a stall — the downstream queue is full and this sender
	// is now blocked on back-pressure, the congestion signal the
	// utilization gauges want alongside raw byte counts.
	select {
	case <-p.credits:
	default:
		p.stalls.Add(1)
		p.stallCtr.Inc()
		select {
		case <-p.done:
			return ErrCanceled
		case <-p.credits:
		}
	}
	n := sim.Bytes(b.ByteSize())
	if p.tape != nil {
		x := obs.Xfer{Bytes: n, Hops: make([]obs.Hop, 0, len(p.Path))}
		for _, l := range p.Path {
			x.Hops = append(x.Hops, obs.Hop{Link: l.Name, Cost: p.acct.Transfer(l, n)})
		}
		p.tape.Xfers = append(p.tape.Xfers, x)
	} else {
		for _, l := range p.Path {
			p.acct.Transfer(l, n)
		}
	}
	p.dataMsgs.Add(1)
	p.bytes.Add(int64(n))
	select {
	case <-p.done:
		return ErrCanceled
	case p.ch <- portItem{b: b}:
	}
	return nil
}

// SendMarker forwards a checkpoint marker downstream. Markers ride the
// same FIFO as data but bypass credits: they are control traffic, so
// each path link is charged one control message, not a transfer. A
// marker send can still block on a full queue; that back-pressure is
// intended and cancellable through the run's context.
func (p *Port) SendMarker(epoch int) error {
	for _, l := range p.Path {
		p.acct.Message(l)
	}
	p.markerMsgs.Add(1)
	select {
	case <-p.done:
		return ErrCanceled
	case p.ch <- portItem{epoch: epoch}:
	}
	return nil
}

// Close signals end-of-stream to the receiver. Only the sender may call
// it, exactly once.
func (p *Port) Close() { close(p.ch) }

// Recv returns the next batch, skipping any checkpoint markers. ok is
// false at end-of-stream. The receiver must call CreditReturn after it
// has finished processing each received batch.
func (p *Port) Recv() (*columnar.Batch, bool, error) {
	for {
		it, ok, err := p.recvItem()
		if err != nil || !ok {
			return nil, false, err
		}
		if it.b != nil {
			return it.b, true, nil
		}
	}
}

// recvItem returns the next message — batch or marker. ok is false at
// end-of-stream.
func (p *Port) recvItem() (portItem, bool, error) {
	select {
	case <-p.done:
		return portItem{}, false, ErrCanceled
	case it, ok := <-p.ch:
		if !ok {
			return portItem{}, false, nil
		}
		return it, true, nil
	}
}

// CreditReturn hands one consumed credit back toward the sender.
// Credits are batched: only every creditBatch-th call produces an actual
// control message on the path.
func (p *Port) CreditReturn() {
	if n := p.pending.Add(1); int(n) >= p.creditBatch {
		p.flushCredits()
	}
}

// flushCredits returns all pending credits in one control message.
func (p *Port) flushCredits() {
	for {
		n := p.pending.Load()
		if n == 0 {
			return
		}
		if !p.pending.CompareAndSwap(n, 0) {
			continue
		}
		for _, l := range p.Path {
			p.acct.Message(l)
		}
		p.creditMsgs.Add(1)
		for i := int64(0); i < n; i++ {
			p.credits <- struct{}{}
		}
		return
	}
}

// Stats reports the port's traffic counters.
func (p *Port) Stats() PortStats {
	return PortStats{
		Name:           p.Name,
		Depth:          p.depth,
		DataMessages:   p.dataMsgs.Load(),
		CreditMessages: p.creditMsgs.Load(),
		MarkerMessages: p.markerMsgs.Load(),
		CreditStalls:   p.stalls.Load(),
		Bytes:          sim.Bytes(p.bytes.Load()),
	}
}

// PortStats is a snapshot of one port's counters. The paper's claim that
// credit-based flow control "is easy to implement and low traffic"
// (Section 7.1) is checked by comparing CreditMessages to DataMessages.
// MarkerMessages counts checkpoint punctuation, present only when the
// pipeline checkpoints.
type PortStats struct {
	Name           string
	Depth          int
	DataMessages   int64
	CreditMessages int64
	MarkerMessages int64
	// CreditStalls counts Sends that blocked because the credit window
	// was empty — how often back-pressure actually bit, versus credits
	// merely being accounting.
	CreditStalls int64
	Bytes        sim.Bytes
}

// String renders the stats compactly.
func (s PortStats) String() string {
	return fmt.Sprintf("%s: %d data, %d credit msgs, %s", s.Name, s.DataMessages, s.CreditMessages, s.Bytes)
}
