package exec

import (
	"repro/internal/columnar"
	"repro/internal/flow"
)

// Iterator is the pull-based Volcano interface (batch-at-a-time rather
// than tuple-at-a-time, as in modern variants): each call returns the
// next batch, or (nil, nil) at end of stream. This model is the
// CPU-centric baseline: every operator runs on the compute node's cores
// and data is pulled up the tree. The operators are the flow stages the
// data-flow engine pushes through; Pull puts one on a pull chain.
type Iterator func() (*columnar.Batch, error)

// Pull drives st from in. Each call feeds st pulled batches until it has
// emitted something; at end of input it calls st.Flush exactly once. The
// queued outputs come back one at a time, in emission order, and in is
// never pulled again after it reports end of input.
func Pull(in Iterator, st flow.Stage) Iterator {
	var queue []*columnar.Batch
	emit := func(b *columnar.Batch) error {
		queue = append(queue, b)
		return nil
	}
	done := false
	return func() (*columnar.Batch, error) {
		for len(queue) == 0 {
			if done {
				return nil, nil
			}
			b, err := in()
			if err != nil {
				return nil, err
			}
			if b == nil {
				done = true
				err = st.Flush(emit)
			} else {
				err = st.Process(b, emit)
			}
			if err != nil {
				return nil, err
			}
		}
		b := queue[0]
		queue[0] = nil
		queue = queue[1:]
		return b, nil
	}
}

// Limit stops after n rows. It is the one operator that keeps a pull
// form of its own: it stops pulling once n rows have passed, so the scan
// below never fetches the rest of the table, whereas a LimitStage must
// take every batch its source pushes. Like LimitStage it counts physical
// rows, so it compacts what it pulls.
func Limit(in Iterator, n int) Iterator {
	seen := 0
	return func() (*columnar.Batch, error) {
		if seen >= n {
			return nil, nil
		}
		b, err := in()
		if err != nil || b == nil {
			return nil, err
		}
		b = b.Compact()
		if b.NumRows() > n-seen {
			b = b.Slice(0, n-seen)
		}
		seen += b.NumRows()
		return b, nil
	}
}

// Drain pulls an iterator to completion, returning all batches dense: it
// is the Volcano tree's sink, and like the flow sink it compacts.
func Drain(it Iterator) ([]*columnar.Batch, error) {
	var out []*columnar.Batch
	for {
		b, err := it()
		if err != nil {
			return out, err
		}
		if b == nil {
			return out, nil
		}
		out = append(out, b.Compact())
	}
}
