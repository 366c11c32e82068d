package exec

import (
	"fmt"
	"sync"

	"repro/internal/columnar"
	"repro/internal/flow"
	"repro/internal/sim"
)

// rowRef addresses one row of one retained build batch.
type rowRef struct {
	batch int32
	row   int32
}

// joinPart is one key partition of a HashTable.
type joinPart struct {
	intMap map[int64][]rowRef
	strMap map[string][]rowRef
}

// HashTable is the shared equi-join core used by both execution models.
// It supports BIGINT and VARCHAR keys; NULL keys never match (SQL
// semantics). The table is split into disjoint key partitions: with one
// partition Build inserts inline; with more, each batch is fanned out to
// one goroutine per partition, and a partition only inserts the rows
// whose key hashes to it. Because exactly one goroutine owns a partition
// and scans the batch rows in order, every key's insertion order — and
// therefore every probe's match order — is the same at every width, no
// matter how the host schedules the build goroutines.
type HashTable struct {
	schema *columnar.Schema
	keyCol int

	parts   []joinPart
	batches []*columnar.Batch
	rows    int64
}

// NewHashTable builds an empty join table over build-side batches with
// the given schema, keyed on keyCol, with the given number of key
// partitions (clamped to at least 1).
func NewHashTable(schema *columnar.Schema, keyCol, parts int) *HashTable {
	if parts < 1 {
		parts = 1
	}
	t := &HashTable{schema: schema, keyCol: keyCol, parts: make([]joinPart, parts)}
	for p := range t.parts {
		switch schema.Fields[keyCol].Type {
		case columnar.Int64:
			t.parts[p].intMap = make(map[int64][]rowRef)
		case columnar.String:
			t.parts[p].strMap = make(map[string][]rowRef)
		default:
			panic(fmt.Sprintf("exec: join key type %v unsupported", schema.Fields[keyCol].Type))
		}
	}
	return t
}

// Build inserts all rows of a build-side batch.
func (t *HashTable) Build(b *columnar.Batch) {
	bi := int32(len(t.batches))
	t.batches = append(t.batches, b)
	col := b.Col(t.keyCol)
	t.rows += int64(col.Len() - col.NullCount())
	if len(t.parts) == 1 {
		t.insert(0, col, bi, nil)
		return
	}
	hashes := HashColumn(col, SeedPartition, nil)
	var wg sync.WaitGroup
	wg.Add(len(t.parts))
	for p := range t.parts {
		go func(p int) {
			defer wg.Done()
			t.insert(p, col, bi, hashes)
		}(p)
	}
	wg.Wait()
}

// insert adds to partition p the non-NULL keys of col that hash to it;
// nil hashes means every key does (the table has one partition).
func (t *HashTable) insert(p int, col *columnar.Vector, bi int32, hashes []uint64) {
	part := &t.parts[p]
	for i := 0; i < col.Len(); i++ {
		if col.IsNull(i) || (hashes != nil && PartitionOf(hashes[i], len(t.parts)) != p) {
			continue
		}
		ref := rowRef{batch: bi, row: int32(i)}
		if part.intMap != nil {
			k := col.Int64s()[i]
			part.intMap[k] = append(part.intMap[k], ref)
		} else {
			k := col.StringAt(i)
			part.strMap[k] = append(part.strMap[k], ref)
		}
	}
}

// Rows reports the number of build rows inserted.
func (t *HashTable) Rows() int64 { return t.rows }

// MemBytes approximates the table's memory footprint, used for the
// "small table fits on the NIC" placement decision (Section 4.4).
func (t *HashTable) MemBytes() sim.Bytes {
	var n sim.Bytes
	for _, b := range t.batches {
		n += sim.Bytes(b.ByteSize())
	}
	// Hash entries: ~24 bytes each.
	n += sim.Bytes(t.rows * 24)
	return n
}

// OutputSchema reports the schema of probe results for the given probe
// schema: probe columns then build columns (renamed on collision).
func (t *HashTable) OutputSchema(probe *columnar.Schema) *columnar.Schema {
	return probe.Concat(t.schema)
}

// Probe matches one probe batch against the table and returns the joined
// rows (inner join), in probe-row order with per-key matches in build
// insertion order.
func (t *HashTable) Probe(probe *columnar.Batch, probeKey int) *columnar.Batch {
	out := columnar.NewBatch(t.OutputSchema(probe.Schema()), probe.NumRows())
	col := probe.Col(probeKey)
	var hashes []uint64
	if len(t.parts) > 1 {
		hashes = HashColumn(col, SeedPartition, nil)
	}
	for i := 0; i < probe.NumRows(); i++ {
		if col.IsNull(i) {
			continue
		}
		part := &t.parts[0]
		if hashes != nil {
			part = &t.parts[PartitionOf(hashes[i], len(t.parts))]
		}
		var refs []rowRef
		if part.intMap != nil {
			if col.Type() != columnar.Int64 {
				panic("exec: probe key type mismatch (want BIGINT)")
			}
			refs = part.intMap[col.Int64s()[i]]
		} else {
			if col.Type() != columnar.String {
				panic("exec: probe key type mismatch (want VARCHAR)")
			}
			refs = part.strMap[col.StringAt(i)]
		}
		if len(refs) == 0 {
			continue
		}
		probeRow := probe.Row(i)
		for _, ref := range refs {
			buildRow := t.batches[ref.batch].Row(int(ref.row))
			out.AppendRow(append(append([]columnar.Value{}, probeRow...), buildRow...)...)
		}
	}
	return out
}

// BuildStage accumulates build-side batches into a hash table; it is a
// terminal stage (emits nothing), used to run the build side as its own
// pipeline before probing starts; the table's partition count is the
// build's width.
type BuildStage struct {
	Table *HashTable
}

// Name implements flow.Stage.
func (s *BuildStage) Name() string { return "join-build" }

// Process implements flow.Stage.
func (s *BuildStage) Process(b *columnar.Batch, emit flow.Emit) error {
	s.Table.Build(b.Compact()) // join build is a dense boundary
	return nil
}

// Flush implements flow.Stage.
func (s *BuildStage) Flush(flow.Emit) error { return nil }

// HashJoinStage probes a pre-built table with the streaming side,
// emitting joined rows. With a small build table this stage can live on
// a smart NIC (Section 4.4's join-on-the-NIC).
type HashJoinStage struct {
	Table    *HashTable
	ProbeKey int
}

// Name implements flow.Stage.
func (s *HashJoinStage) Name() string { return fmt.Sprintf("hashjoin(col%d)", s.ProbeKey) }

// Process implements flow.Stage.
func (s *HashJoinStage) Process(b *columnar.Batch, emit flow.Emit) error {
	out := s.Table.Probe(b.Compact(), s.ProbeKey)
	if out.NumRows() == 0 {
		return nil
	}
	return emit(out)
}

// Flush implements flow.Stage.
func (s *HashJoinStage) Flush(flow.Emit) error { return nil }
