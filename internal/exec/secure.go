package exec

import (
	"encoding/binary"
	"fmt"

	"repro/internal/columnar"
	"repro/internal/encoding"
	"repro/internal/flow"
)

// EncryptStage and DecryptStage implement the paper's Section 1
// requirement that cloud query plans include encryption as a standard
// operation. The encrypt stage serializes each batch into its encoded
// wire form and seals it with AES-CTR + HMAC; the decrypt stage
// authenticates, opens and decodes. Between the two stages, batches
// travel as opaque sealed payloads — which also means the wire carries
// the (smaller) encoded representation.

// sealedSchema is the container format for in-flight sealed batches.
var sealedSchema = columnar.NewSchema(columnar.Field{Name: "sealed", Type: columnar.String})

// serializeBatch encodes a batch into a self-contained byte blob:
// column count, then per column a field header and the encoded column,
// each sized first and then written into one buffer of exactly its size.
func serializeBatch(b *columnar.Batch) []byte {
	fields := b.Schema().Fields
	ws := make([]encoding.ColumnWriter, len(fields))
	size := 4
	for i, f := range fields {
		ws[i], _ = encoding.SizeColumn(b.Col(i))
		size += 2 + len(f.Name) + 1 + ws[i].Len()
	}
	out := binary.LittleEndian.AppendUint32(make([]byte, 0, size), uint32(len(fields)))
	for i, f := range fields {
		out = binary.LittleEndian.AppendUint16(out, uint16(len(f.Name)))
		out = append(out, f.Name...)
		out = append(out, byte(f.Type))
		out = ws[i].AppendTo(out)
	}
	return out
}

// deserializeBatch reverses serializeBatch.
func deserializeBatch(data []byte) (*columnar.Batch, error) {
	if len(data) < 4 {
		return nil, fmt.Errorf("exec: sealed batch truncated")
	}
	ncols := int(binary.LittleEndian.Uint32(data))
	data = data[4:]
	schema := &columnar.Schema{}
	var vecs []*columnar.Vector
	for i := 0; i < ncols; i++ {
		if len(data) < 2 {
			return nil, fmt.Errorf("exec: sealed batch field truncated")
		}
		nameLen := int(binary.LittleEndian.Uint16(data))
		data = data[2:]
		if len(data) < nameLen+1 {
			return nil, fmt.Errorf("exec: sealed batch name truncated")
		}
		name := string(data[:nameLen])
		typ := columnar.Type(data[nameLen])
		data = data[nameLen+1:]
		col, used, err := encoding.UnmarshalColumn(data)
		if err != nil {
			return nil, err
		}
		data = data[used:]
		v, err := col.Decode()
		if err != nil {
			return nil, err
		}
		schema.Fields = append(schema.Fields, columnar.Field{Name: name, Type: typ})
		vecs = append(vecs, v)
	}
	return columnar.BatchOf(schema, vecs...), nil
}

// EncryptStage seals batches for the wire.
type EncryptStage struct {
	Key *encoding.StreamKey
	seq uint64
}

// Name implements flow.Stage.
func (s *EncryptStage) Name() string { return "encrypt" }

// Process implements flow.Stage.
func (s *EncryptStage) Process(b *columnar.Batch, emit flow.Emit) error {
	// serializeBatch encodes physical rows: dense boundary.
	sealed, err := s.Key.Encrypt(s.seq, serializeBatch(b.Compact()))
	if err != nil {
		return err
	}
	s.seq++
	return emit(columnar.BatchOf(sealedSchema, columnar.FromStrings([]string{string(sealed)})))
}

// Flush implements flow.Stage.
func (s *EncryptStage) Flush(flow.Emit) error { return nil }

// SnapshotState implements flow.Snapshotter: the stream sequence number
// must survive a partial restart or replayed batches would reuse
// nonces / break the receiver's sequence check.
func (s *EncryptStage) SnapshotState() any { return s.seq }

// RestoreState implements flow.Snapshotter.
func (s *EncryptStage) RestoreState(state any) { s.seq = state.(uint64) }

// DecryptStage authenticates and opens sealed batches.
type DecryptStage struct {
	Key *encoding.StreamKey
}

// Name implements flow.Stage.
func (s *DecryptStage) Name() string { return "decrypt" }

// Process implements flow.Stage.
func (s *DecryptStage) Process(b *columnar.Batch, emit flow.Emit) error {
	if !b.Schema().Equal(sealedSchema) {
		return fmt.Errorf("exec: decrypt stage received unsealed batch %s", b.Schema())
	}
	// One sealed blob per physical row: dense boundary.
	for _, sealed := range b.Compact().Col(0).Strings() {
		blob, err := s.Key.Decrypt([]byte(sealed))
		if err != nil {
			return err
		}
		batch, err := deserializeBatch(blob)
		if err != nil {
			return err
		}
		if err := emit(batch); err != nil {
			return err
		}
	}
	return nil
}

// Flush implements flow.Stage.
func (s *DecryptStage) Flush(flow.Emit) error { return nil }
