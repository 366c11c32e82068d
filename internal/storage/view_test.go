package storage

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/columnar"
	"repro/internal/encoding"
	"repro/internal/expr"
	"repro/internal/workload"
)

// lineitemBlob marshals one full 65,536-row, 9-column lineitem segment:
// what every scan of the benchmark's table opens eight of.
func lineitemBlob(tb testing.TB) []byte {
	tb.Helper()
	blob := BuildSegment(0, workload.GenLineitem(workload.DefaultLineitemConfig(65536))).Marshal()
	if len(blob) < 1<<20 {
		tb.Fatalf("lineitem segment is %d bytes, expected over a MiB", len(blob))
	}
	return blob
}

// inside reports whether sub's backing bytes lie within blob's.
func inside(sub, blob []byte) bool {
	if len(sub) == 0 {
		return true
	}
	lo := uintptr(unsafe.Pointer(unsafe.SliceData(blob)))
	p := uintptr(unsafe.Pointer(unsafe.SliceData(sub)))
	return p >= lo && p+uintptr(len(sub)) <= lo+uintptr(len(blob))
}

// Opening a segment walks its headers and copies nothing: every column
// aliases the blob, with its capacity clamped so an append through the
// view can never reach a neighbouring section, and what the open
// allocates does not depend on how big the blob is.
func TestUnmarshalSegmentIsAView(t *testing.T) {
	blob := lineitemBlob(t)
	seg, err := UnmarshalSegment(blob)
	if err != nil {
		t.Fatal(err)
	}
	if seg.NumRows != 65536 || len(seg.Columns) != 9 {
		t.Fatalf("opened %d rows x %d columns", seg.NumRows, len(seg.Columns))
	}
	var aliased int
	for i, c := range seg.Columns {
		for name, s := range map[string][]byte{"Data": c.Data, "Nulls": c.Nulls} {
			if !inside(s, blob) {
				t.Errorf("column %d %s was copied out of the blob", i, name)
			}
			if cap(s) != len(s) {
				t.Errorf("column %d %s has cap %d over len %d: an append would write into the blob", i, name, cap(s), len(s))
			}
		}
		aliased += len(c.Data) + len(c.Nulls)
	}
	if aliased < len(blob)*9/10 {
		t.Errorf("views cover %d of the blob's %d bytes", aliased, len(blob))
	}
	if _, err := seg.Decode(); err != nil {
		t.Fatalf("the view does not decode: %v", err)
	}

	small := BuildSegment(0, workload.GenLineitem(workload.DefaultLineitemConfig(64))).Marshal()
	open := func(b []byte) func() {
		return func() {
			if _, err := UnmarshalSegment(b); err != nil {
				t.Fatal(err)
			}
		}
	}
	bigAllocs, smallAllocs := testing.AllocsPerRun(20, open(blob)), testing.AllocsPerRun(20, open(small))
	if bigAllocs != smallAllocs || bigAllocs > 64 {
		t.Errorf("open allocates %.0f times for %d bytes and %.0f for %d: want one small constant", bigAllocs, len(blob), smallAllocs, len(small))
	}
	if bigBytes, smallBytes := bytesPerRun(20, open(blob)), bytesPerRun(20, open(small)); bigBytes != smallBytes || bigBytes >= 4096 {
		t.Errorf("open allocates %d B for %d bytes and %d B for %d: want one constant under 4096", bigBytes, len(blob), smallBytes, len(small))
	}
}

// bytesPerRun is testing.AllocsPerRun for bytes instead of mallocs.
func bytesPerRun(runs int, f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// BenchmarkSegmentOpen is CI's view gate: opening a full lineitem
// segment must stay under 4096 B/op (it copied the blob, 1.6 MB/op,
// before it was a view).
func BenchmarkSegmentOpen(b *testing.B) {
	blob := lineitemBlob(b)
	b.SetBytes(int64(len(blob)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := UnmarshalSegment(blob); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGatherDecode is CI's gather-decode gate: all nine columns of
// one full lineitem segment (seven fixed-width, two DICT, one of the ints
// DELTA) decoded under a random 50 % selection. A column costs its values
// and its vector — a DICT column also the dictionary table and the one
// string that backs it — so allocs/op stays at or under three a column,
// and B/op within a tenth of out-B/op, the bytes of the output vectors'
// backing arrays (8 per number, a 4-byte code per DICT row and a 16-byte
// header per PLAIN string): an index slice, an intermediate full decode, a
// per-row append or a DICT row turned into a string shows in one or the
// other.
func BenchmarkGatherDecode(b *testing.B) {
	seg, err := UnmarshalSegment(lineitemBlob(b))
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	sel := columnar.NewBitmap(seg.NumRows)
	for i := 0; i < seg.NumRows; i++ {
		if rng.Intn(2) == 0 {
			sel.Set(i)
		}
	}
	var outBytes int
	for _, c := range seg.Columns {
		switch {
		case c.Encoding == encoding.Dict:
			outBytes += 4 * sel.Count()
		case c.Type == columnar.String:
			outBytes += 16 * sel.Count()
		default:
			outBytes += 8 * sel.Count()
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range seg.Columns {
			if _, err := c.DecodeFiltered(sel); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(outBytes), "out-B/op")
}

// BenchmarkSegmentDecode is CI's gate on the eager decode: every column of
// one full lineitem segment through the gather kernels, each under a
// selection of every row that Decode keeps on its stack. It stays at or
// under 29 allocs/op and 4,210,000 B/op: 27 and 4,201,249 since a DICT
// column decodes to codes (5,773,682 when it decoded to one string header
// a row). A selection on the heap, a null bitmap copied through one or a
// DICT row turned into a string shows in one or the other.
func BenchmarkSegmentDecode(b *testing.B) {
	seg, err := UnmarshalSegment(lineitemBlob(b))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if decodedSink, err = seg.Decode(); err != nil {
			b.Fatal(err)
		}
	}
}

var (
	decodedSink *columnar.Batch
	builtSink   *Segment
)

// BenchmarkBuildSegment is CI's ingest gate for encoding: one full
// 65,536-row lineitem segment. Each column is sized once and only its
// winning codec is written, into a buffer of exactly its length, so B/op
// stays within 2 × enc-B/op (the bytes the segment's columns hold; the
// rest is a DICT column's codes and map) and allocs/op ≤ 48. Writing
// every candidate into a slice grown from nil cost 21.5 MB/op.
func BenchmarkBuildSegment(b *testing.B) {
	batch := workload.GenLineitem(workload.DefaultLineitemConfig(65536))
	enc := BuildSegment(0, batch).EncodedSize()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		builtSink = BuildSegment(0, batch)
	}
	b.ReportMetric(float64(enc), "enc-B/op")
}

// Marshal writes into one presized buffer; the bytes are still the
// header followed by each field and its column's own Marshal.
func TestSegmentMarshalIsTheColumnConcatenation(t *testing.T) {
	for _, b := range []*columnar.Batch{lineBatch(0), lineBatch(777), workload.GenLineitem(workload.DefaultLineitemConfig(5000))} {
		seg := BuildSegment(9, b)
		want := binary.LittleEndian.AppendUint32(nil, uint32(seg.ID))
		want = binary.LittleEndian.AppendUint32(want, uint32(seg.NumRows))
		want = binary.LittleEndian.AppendUint32(want, uint32(len(seg.Columns)))
		for i, f := range seg.Schema.Fields {
			want = binary.LittleEndian.AppendUint16(want, uint16(len(f.Name)))
			want = append(want, f.Name...)
			want = append(want, byte(f.Type))
			col := seg.Columns[i].Marshal()
			if len(col) > seg.Columns[i].MaxMarshalSize() {
				t.Fatalf("column %d marshals to %d bytes, over its bound %d", i, len(col), seg.Columns[i].MaxMarshalSize())
			}
			want = append(want, col...)
		}
		got := seg.Marshal()
		if !bytes.Equal(got, want) {
			t.Fatalf("%d rows: Marshal differs from the column-by-column concatenation", b.NumRows())
		}
		if allocs := testing.AllocsPerRun(5, func() { seg.Marshal() }); allocs != 1 {
			t.Errorf("%d rows: Marshal allocates %.0f times, want once", b.NumRows(), allocs)
		}
	}
}

// A view trusts the header, so open checks what it trusts: a column
// whose type or row count disagrees with its field or its segment is
// ErrCorrupt, and a corrupt column count fails at the first field that
// is not there instead of sizing an allocation.
func TestUnmarshalSegmentValidatesHeader(t *testing.T) {
	seg := BuildSegment(1, lineBatch(300))
	clean := seg.Marshal()

	wrongType := *seg
	wrongType.Schema = columnar.NewSchema(append([]columnar.Field(nil), seg.Schema.Fields...)...)
	wrongType.Schema.Fields[0].Type = columnar.String // column 0 still says BIGINT
	wrongRows := *seg
	wrongRows.NumRows = 299
	huge := append([]byte(nil), clean...)
	binary.LittleEndian.PutUint32(huge[8:], 1<<32-1)
	for name, blob := range map[string][]byte{"type": wrongType.Marshal(), "rows": wrongRows.Marshal(), "ncols": huge} {
		if _, err := UnmarshalSegment(blob); !errors.Is(err, encoding.ErrCorrupt) {
			t.Errorf("%s mismatch: err = %v, want ErrCorrupt", name, err)
		}
	}
	if n := bytesPerRun(5, func() { UnmarshalSegment(huge) }); n > 1<<16 {
		t.Errorf("a corrupt column count made open allocate %d B", n)
	}

	// Flip every bit of each of the first 64 bytes (segment header, first
	// field, first column's header and the start of its payload): open,
	// decode or a kernel reports an error, or the flip was one no check
	// can see and the segment still decodes. Never a panic.
	for at := 0; at < 64; at++ {
		for bit := 0; bit < 8; bit++ {
			blob := append([]byte(nil), clean...)
			blob[at] ^= 1 << bit
			VerifySegmentBlob(blob)
			s, err := UnmarshalSegment(blob)
			if err != nil {
				continue
			}
			s.Decode()
			for _, c := range s.Columns {
				c.EvalIntRange(10, 200)
				c.EvalIntIn([]int64{7, 150})
				c.DecodeFiltered(columnar.NewBitmap(s.NumRows))
			}
		}
	}
}

// Scans hold views of stored blobs while the store replaces those blobs
// underneath them: damage, repair and overwrite all install a fresh
// copy and never write through a slice a reader may hold. Every scan
// returns the right rows or a corruption error, and the race detector
// stays quiet.
func TestScanRacesReplicaDamageAndRepair(t *testing.T) {
	srv := newTestServer(t, true)
	store := srv.Store()
	store.SetReplicas(2)
	store.RetryBase = 0
	srv.EnableVerify(true)
	loadTable(t, srv, 4000)
	// Every column, alternately through the kernels and the eager decoder:
	// between them Go code (which the race detector sees, unlike the CRC's
	// assembly) reads every payload byte of a view.
	spec := ScanSpec{Filter: expr.NewBetween(1, 5, 30), Pushdown: true, Workers: 2}
	ctx := context.Background()
	scan := func(i int) ([][]columnar.Value, error) {
		spec := spec
		spec.EncodedEval = i%2 == 0
		emit, got := collect(t)
		_, err := srv.Scan(ctx, "lineitem", spec, emit)
		return rowsOf(*got), err
	}
	want, err := scan(0)
	if err != nil || len(want) == 0 {
		t.Fatalf("quiet scan: %d rows, err %v", len(want), err)
	}
	meta, err := srv.Table("lineitem")
	if err != nil {
		t.Fatal(err)
	}
	clean := make(map[string][]byte)
	for _, key := range meta.SegmentKeys {
		if clean[key], err = store.Get(ctx, key); err != nil {
			t.Fatal(err)
		}
	}

	stop := make(chan struct{})
	var chaos sync.WaitGroup
	chaos.Add(1)
	go func() {
		defer chaos.Done()
		for round := 0; ; round++ {
			for _, key := range meta.SegmentKeys {
				select {
				case <-stop:
					return
				default:
				}
				r := round % 2
				store.CorruptReplica(key, r)
				if round%5 == 4 {
					store.CorruptReplica(key, 1-r) // both replicas bad: the scan may fail, typed
					store.Put(key, clean[key])
				} else if err := store.RepairReplica(ctx, key, r, clean[key]); err != nil {
					t.Errorf("RepairReplica: %v", err)
				}
			}
		}
	}()
	ok := 0
	for i := 0; i < 60; i++ {
		got, err := scan(i)
		var bad *ReplicaCorruptError
		switch {
		case err == nil && reflect.DeepEqual(got, want):
			ok++
		case err == nil:
			t.Fatalf("scan %d returned %d rows that are not the quiet scan's %d", i, len(got), len(want))
		case !errors.Is(err, encoding.ErrCorrupt) && !errors.As(err, &bad):
			t.Fatalf("scan %d: %v, want rows or a corruption error", i, err)
		}
	}
	close(stop)
	chaos.Wait()
	if ok == 0 {
		t.Error("no scan succeeded beside the chaos loop")
	}
}
