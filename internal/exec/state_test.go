package exec

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/columnar"
	"repro/internal/encoding"
	"repro/internal/flow"
)

// descBatches returns n batches of rows keys, keys counting down across
// them, so a sort has work to do and a limit cuts mid-stream.
func descBatches(n, rows int) []*columnar.Batch {
	out := make([]*columnar.Batch, n)
	k := int64(n * rows)
	for i := range out {
		ks, vs := make([]int64, rows), make([]int64, rows)
		for j := range ks {
			ks[j], vs[j] = k, k*10
			k--
		}
		out[i] = kvBatch(ks, vs)
	}
	return out
}

// A serial stateful stage snapshotted after k batches and restored into
// a fresh stage that is fed the rest emits, together with what the first
// stage emitted before the snapshot, exactly what an uninterrupted stage
// emits — the partial-restart contract of flow.Snapshotter.
func TestSnapshotRestoreMatchesUninterrupted(t *testing.T) {
	key := encoding.NewStreamKey([]byte("state"))
	stages := []func() flow.Stage{
		func() flow.Stage { return &CountStage{} },
		func() flow.Stage { return &SortStage{ByCol: 0} },
		func() flow.Stage { return &LimitStage{N: 250} },
		func() flow.Stage { return &EncryptStage{Key: key} },
	}
	in := descBatches(4, 100)
	for _, fresh := range stages {
		t.Run(fresh().Name(), func(t *testing.T) {
			want := allRows(runStage(t, fresh(), in...))
			for k := 0; k <= len(in); k++ {
				before := fresh()
				var out []*columnar.Batch
				for _, b := range in[:k] {
					if err := before.Process(b, func(b *columnar.Batch) error { out = append(out, b); return nil }); err != nil {
						t.Fatal(err)
					}
				}
				after := fresh()
				after.(flow.Snapshotter).RestoreState(before.(flow.Snapshotter).SnapshotState())
				out = append(out, runStage(t, after, in[k:]...)...)
				if got := allRows(out); !reflect.DeepEqual(got, want) {
					t.Errorf("restored after %d batches: %d rows differ from the uninterrupted stage's %d", k, len(got), len(want))
				}
			}
		})
	}
}

// The pure per-batch hash stages share themselves across a worker pool:
// at width 2 the pipeline emits the batches width 1 does, in order.
func TestHashStagesAtWidthTwoMatchWidthOne(t *testing.T) {
	build := descBatches(1, 400)[0] // every probe key matches
	table := NewHashTable(kvSchema(), 0, 1)
	table.Build(build)
	probe := descBatches(8, 50)
	run := func(workers int) [][][]columnar.Value {
		p := &flow.Pipeline{
			Name: fmt.Sprintf("hash-w%d", workers),
			Source: func(emit flow.Emit) error {
				for _, b := range probe {
					if err := emit(b); err != nil {
						return err
					}
				}
				return nil
			},
			Stages: []flow.Placed{
				{Stage: &HashStage{KeyCol: 0}},
				{Stage: &HashJoinStage{Table: table, ProbeKey: 0}},
			},
			Workers: workers,
		}
		var got [][][]columnar.Value
		if _, err := p.Run(context.Background(), func(b *columnar.Batch) error {
			got = append(got, allRows([]*columnar.Batch{b}))
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return got
	}
	one, two := run(1), run(2)
	if len(one) != len(probe) {
		t.Fatalf("width 1 emitted %d batches, want one per probe batch (%d)", len(one), len(probe))
	}
	if !reflect.DeepEqual(two, one) {
		t.Error("width 2 emitted other batches than width 1")
	}
}
