package storage

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/columnar"
	"repro/internal/faults"
	"repro/internal/sim"
	"repro/internal/wiring"
)

// Recovery machinery: replication, retry with backoff, defensive
// copies, and scan-level corrupt re-reads.

func TestGetReturnsDefensiveCopy(t *testing.T) {
	s := NewObjectStore(nil)
	s.Put("k", []byte("hello world!"))
	a, err := s.Get(context.Background(), "k")
	if err != nil {
		t.Fatal(err)
	}
	a[0] = 'X' // caller scribbles on the result
	b, err := s.Get(context.Background(), "k")
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != "hello world!" {
		t.Fatalf("stored blob mutated through Get result: %q", b)
	}
	// The metered hot path shares the stored array by contract.
	c, err := s.GetNoCopy(context.Background(), "k")
	if err != nil {
		t.Fatal(err)
	}
	d, err := s.GetNoCopy(context.Background(), "k")
	if err != nil {
		t.Fatal(err)
	}
	if &c[0] != &d[0] {
		t.Error("GetNoCopy copied the blob")
	}
}

func TestPutDeleteMetering(t *testing.T) {
	s := NewObjectStore(nil)
	s.SetReplicas(3)
	s.Put("k", make([]byte, 100))
	if ops, bytes := s.Meter.Ops(), s.Meter.Bytes(); ops != 1 || bytes != 300 {
		t.Fatalf("after Put: ops=%d bytes=%d, want 1 op and 300 replicated bytes", ops, bytes)
	}
	before := s.Meter.Bytes()
	s.Delete("k")
	if ops, bytes := s.Meter.Ops(), s.Meter.Bytes(); ops != 2 || bytes != before {
		t.Fatalf("after Delete: ops=%d bytes=%d, want one op and no byte charge", ops, bytes)
	}
	if s.NumObjects() != 0 {
		t.Fatal("Delete left replicas behind")
	}
}

func TestReplicationCapacityAccounting(t *testing.T) {
	s := NewObjectStore(nil)
	s.SetReplicas(2)
	s.Put("a", make([]byte, 10))
	s.Put("b", make([]byte, 5))
	if got := s.TotalBytes(); got != 30 {
		t.Fatalf("TotalBytes = %d, want 30 (replicas included)", got)
	}
	if got := s.NumObjects(); got != 2 {
		t.Fatalf("NumObjects = %d, want 2 (keys counted once)", got)
	}
	if got := s.Size("a"); got != 10 {
		t.Fatalf("Size = %d, want the single-copy size 10", got)
	}
}

func TestTransientFaultRetries(t *testing.T) {
	s := NewObjectStore(nil)
	s.RetryBase = 0 // no real sleeping in tests
	s.svc.Faults = faults.New(42)
	s.svc.Faults.Arm(faults.Point{Kind: faults.TransientRead, Prob: 1, Budget: 2})
	s.Put("k", []byte("payload"))
	got, err := s.Get(context.Background(), "k")
	if err != nil {
		t.Fatalf("Get did not recover from transient faults: %v", err)
	}
	if string(got) != "payload" {
		t.Fatalf("recovered read returned %q", got)
	}
	rec := s.Totals()
	if rec.Retries != 2 {
		t.Errorf("Retries = %d, want 2", rec.Retries)
	}
	if rec.RetryBytes != sim.Bytes(len("payload")) {
		t.Errorf("RetryBytes = %d, want %d", rec.RetryBytes, len("payload"))
	}
}

// On a manual clock the read path waits without sleeping: one transient
// fault costs the clock two service times and one backoff, and costs
// next to no real time.
func TestTransientFaultRetryAdvancesAManualClock(t *testing.T) {
	clk := sim.NewManualClock(time.Now())
	s := NewObjectStore(&wiring.Services{Clock: clk, Faults: faults.New(42)})
	s.RetryBase = time.Hour
	s.BaseLatency = time.Minute
	s.svc.Faults.Arm(faults.Point{Kind: faults.TransientRead, Prob: 1, Budget: 1})
	s.Put("k", []byte("payload"))
	wall, t0 := time.Now(), clk.Now()
	got, err := s.Get(context.Background(), "k")
	if err != nil || string(got) != "payload" {
		t.Fatalf("Get = %q, %v; want the payload after one retry", got, err)
	}
	if adv, want := clk.Since(t0), 2*s.BaseLatency+s.RetryBase; adv != want {
		t.Errorf("the read advanced the clock %v, want %v", adv, want)
	}
	if real := time.Since(wall); real >= time.Second {
		t.Errorf("the read took %v of real time, want well under a second", real)
	}
	if rec := s.Totals(); rec.Retries != 1 {
		t.Errorf("Retries = %d, want 1", rec.Retries)
	}
}

func TestRetryBudgetExhaustion(t *testing.T) {
	s := NewObjectStore(nil)
	s.RetryBase = 0
	s.MaxRetries = 1
	s.svc.Faults = faults.New(42)
	s.svc.Faults.Arm(faults.Point{Kind: faults.TransientRead, Prob: 1})
	s.Put("k", []byte("x"))
	_, err := s.Get(context.Background(), "k")
	if err == nil {
		t.Fatal("Get succeeded through an always-firing fault")
	}
	if !faults.IsTransient(err) {
		t.Fatalf("exhausted retries surfaced non-transient error %v", err)
	}
}

func TestReplicaFallbackOnMissing(t *testing.T) {
	s := NewObjectStore(nil)
	s.RetryBase = 0
	s.SetReplicas(2)
	s.svc.Faults = faults.New(7)
	// The first replica read reports the object missing; the second
	// replica must serve, with no same-replica retry wasted on it.
	s.svc.Faults.Arm(faults.Point{Kind: faults.ObjectMissing, Prob: 1, Budget: 1})
	s.Put("k", []byte("survives"))
	got, err := s.Get(context.Background(), "k")
	if err != nil {
		t.Fatalf("replicated Get failed: %v", err)
	}
	if string(got) != "survives" {
		t.Fatalf("fallback read returned %q", got)
	}
	rec := s.Totals()
	if rec.ReplicaFallbacks != 1 {
		t.Errorf("ReplicaFallbacks = %d, want 1", rec.ReplicaFallbacks)
	}
	if rec.Retries != 0 {
		t.Errorf("Retries = %d, want 0 (missing replicas are not retried in place)", rec.Retries)
	}
}

func TestMissingKeyIsPermanent(t *testing.T) {
	s := NewObjectStore(nil)
	s.svc.Faults = faults.New(1)
	s.svc.Faults.Arm(faults.Point{Kind: faults.TransientRead, Prob: 1})
	_, err := s.Get(context.Background(), "absent")
	if err == nil || !strings.Contains(err.Error(), "not found") {
		t.Fatalf("err = %v, want not-found", err)
	}
	if faults.IsTransient(err) {
		t.Error("genuinely absent key classified transient")
	}
	if rec := s.Totals(); rec.Retries != 0 {
		t.Errorf("absent key burned %d retries", rec.Retries)
	}
}

func TestScanRetriesCorruptRead(t *testing.T) {
	srv := newTestServer(t, true)
	srv.Store().RetryBase = 0
	loadTable(t, srv, 3000) // 3 segments
	inj := faults.New(99)
	// Two reads return corrupted bytes; checksum catches each and the
	// scan re-reads. The stored blob is clean, so retries succeed.
	inj.Arm(faults.Point{Kind: faults.CorruptBlob, Prob: 1, Budget: 2})
	srv.Store().svc.Faults = inj
	var rows int64
	stats, err := srv.Scan(context.Background(), "lineitem", ScanSpec{}, func(b *columnar.Batch) error {
		rows += int64(b.NumRows())
		return nil
	})
	if err != nil {
		t.Fatalf("scan did not recover from corrupt reads: %v", err)
	}
	if rows != 3000 {
		t.Fatalf("recovered scan returned %d rows, want 3000", rows)
	}
	if stats.Retries != 2 {
		t.Errorf("stats.Retries = %d, want 2", stats.Retries)
	}
	if stats.RetryBytes <= 0 {
		t.Error("corrupt re-reads reported no RetryBytes")
	}
}

func TestScanFailsOnPersistentCorruption(t *testing.T) {
	srv := newTestServer(t, true)
	srv.Store().RetryBase = 0
	loadTable(t, srv, 1000)
	meta, err := srv.Table("lineitem")
	if err != nil {
		t.Fatal(err)
	}
	key := meta.SegmentKeys[0]
	blob, err := srv.Store().Get(context.Background(), key)
	if err != nil {
		t.Fatal(err)
	}
	blob[len(blob)/2] ^= 0x01 // Get copies, so corrupt and write back
	srv.Store().Put(key, blob)
	emitted := 0
	_, err = srv.Scan(context.Background(), "lineitem", ScanSpec{}, func(*columnar.Batch) error {
		emitted++
		return nil
	})
	if err == nil {
		t.Fatal("scan over persistently corrupt segment succeeded")
	}
	if !strings.Contains(err.Error(), "corrupt") && !strings.Contains(err.Error(), "checksum") {
		t.Errorf("err = %v, want corruption mention", err)
	}
}
