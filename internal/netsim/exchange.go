// Package netsim implements processing on the network (paper Section 4):
// the exchange operator executed by a smart NIC that partitions data on
// the fly and scatters it to compute nodes without CPU involvement
// (Figure 4), plus the collective operations (broadcast, gather) the
// paper says smart NICs should expose.
package netsim

import (
	"fmt"

	"repro/internal/columnar"
	"repro/internal/exec"
	"repro/internal/fabric"
	"repro/internal/flow"
	"repro/internal/sim"
)

// Destination is one receiver of scattered data: the fabric path to it
// and the consumer that handles its share.
type Destination struct {
	Path []*fabric.Link
	Sink flow.Emit
}

// Exchange is a hash-partitioning scatter stage. Placed on a smart NIC
// it implements the paper's "partition the data on the fly ... without
// involvement of the CPU"; placed on a CPU it is the baseline exchange
// operator.
type Exchange struct {
	KeyCol int
	Dests  []Destination
	// BatchRows is the output granule per destination; default 1024.
	BatchRows int
	// Account, when non-nil, is the query's account: the transfers down
	// each destination's path are recorded on it. Nil charges the links'
	// meters only.
	Account *fabric.Account

	builders []*columnar.Batch
	schema   *columnar.Schema
}

// NewExchange builds an exchange over the given destinations.
func NewExchange(keyCol int, dests []Destination) (*Exchange, error) {
	if len(dests) == 0 {
		return nil, fmt.Errorf("netsim: exchange needs at least one destination")
	}
	return &Exchange{KeyCol: keyCol, Dests: dests, BatchRows: 1024}, nil
}

// Name implements flow.Stage.
func (e *Exchange) Name() string { return fmt.Sprintf("exchange(col%d,x%d)", e.KeyCol, len(e.Dests)) }

// Process implements flow.Stage: route each row to its partition's
// builder and ship builders as they fill.
func (e *Exchange) Process(b *columnar.Batch, emit flow.Emit) error {
	b = b.Compact() // routes physical rows: dense boundary
	if e.schema == nil {
		e.schema = b.Schema()
		e.builders = make([]*columnar.Batch, len(e.Dests))
		for i := range e.builders {
			e.builders[i] = columnar.NewBatch(e.schema, e.BatchRows)
		}
	}
	col := b.Col(e.KeyCol)
	for i := 0; i < b.NumRows(); i++ {
		d := exec.PartitionOf(exec.HashValue(col, i, exec.SeedPartition), len(e.Dests))
		e.builders[d].AppendRow(b.Row(i)...)
		if e.builders[d].NumRows() >= e.BatchRows {
			if err := e.ship(d); err != nil {
				return err
			}
		}
	}
	return nil
}

// Flush implements flow.Stage: drain every partial builder.
func (e *Exchange) Flush(flow.Emit) error {
	for d := range e.Dests {
		if e.builders != nil && e.builders[d].NumRows() > 0 {
			if err := e.ship(d); err != nil {
				return err
			}
		}
	}
	return nil
}

// ship sends builder d's contents down its path and resets it.
func (e *Exchange) ship(d int) error {
	out := e.builders[d]
	e.builders[d] = columnar.NewBatch(e.schema, e.BatchRows)
	n := sim.Bytes(out.ByteSize())
	for _, l := range e.Dests[d].Path {
		e.Account.Transfer(l, n)
	}
	return e.Dests[d].Sink(out)
}

// Gather collects batches from several per-node result sets into one
// slice, charging each path for its traffic (on acct too, when it is
// non-nil). The batches arrive in node order for determinism.
func Gather(acct *fabric.Account, parts [][]*columnar.Batch, paths [][]*fabric.Link) []*columnar.Batch {
	var out []*columnar.Batch
	for i, part := range parts {
		for _, b := range part {
			if i < len(paths) {
				n := sim.Bytes(b.ByteSize())
				for _, l := range paths[i] {
					acct.Transfer(l, n)
				}
			}
			out = append(out, b)
		}
	}
	return out
}
