package storage

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/columnar"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/resilience"
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

// Every retry spends a budget token, the store's transient re-read and
// the scan's corrupt re-read alike: with no policy a read gives up after
// exactly MaxRetries retries and nothing is denied; with a drained
// budget it reads once, retries nothing and counts one denial.
func TestRetryBudgetExhaustion(t *testing.T) {
	drained := func() *resilience.Policy {
		b := resilience.NewBudget(0, 1)
		b.TryAcquire() // spend the startup token: nothing is left
		return &resilience.Policy{Budget: b}
	}
	// transient fails every read of a store with MaxRetries 1.
	transient := func(t *testing.T, pol *resilience.Policy) (ReadStats, int64) {
		s := NewObjectStore(&wiring.Services{Resilience: pol, Faults: faults.New(42)})
		s.RetryBase = 0
		s.MaxRetries = 1
		s.svc.Faults.Arm(faults.Point{Kind: faults.TransientRead, Prob: 1})
		s.Put("k", []byte("x"))
		before := s.Meter.Ops()
		_, err := s.Get(context.Background(), "k")
		if err == nil {
			t.Fatal("Get succeeded through an always-firing fault")
		}
		if !faults.IsTransient(err) {
			t.Fatalf("exhausted retries surfaced non-transient error %v", err)
		}
		return s.Totals(), s.Meter.Ops() - before
	}
	// corrupt scans a one-segment table whose stored blob fails its
	// checksum on every read.
	corrupt := func(t *testing.T, pol *resilience.Policy) (ReadStats, int64) {
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
		blob[len(blob)/2] ^= 0x01
		srv.Store().Put(key, blob)
		srv.Store().svc.Resilience = pol
		before := srv.Store().Meter.Ops()
		stats, err := srv.Scan(context.Background(), "lineitem", ScanSpec{}, func(*columnar.Batch) error { return nil })
		if err == nil {
			t.Fatal("scan over a persistently corrupt segment succeeded")
		}
		return stats.ReadStats, srv.Store().Meter.Ops() - before
	}
	for _, tc := range []struct {
		name    string
		read    func(*testing.T, *resilience.Policy) (ReadStats, int64)
		pol     *resilience.Policy
		reads   int64
		retries int64
		denied  int64
	}{
		{"store/no-policy", transient, nil, 2, 1, 0},
		{"store/drained-budget", transient, drained(), 1, 0, 1},
		{"scan/no-policy", corrupt, nil, 1 + DefaultMaxRetries, DefaultMaxRetries, 0},
		{"scan/drained-budget", corrupt, drained(), 1, 0, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rs, reads := tc.read(t, tc.pol)
			if reads != tc.reads || rs.Retries != tc.retries || rs.RetryBudgetExhausted != tc.denied {
				t.Errorf("%d reads, %d retries, %d denials; want %d, %d, %d",
					reads, rs.Retries, rs.RetryBudgetExhausted, tc.reads, tc.retries, tc.denied)
			}
			if tc.pol != nil {
				if got := tc.pol.Budget.Exhausted(); got != tc.denied {
					t.Errorf("Budget.Exhausted() = %d, want %d", got, tc.denied)
				}
			}
		})
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

// A traced retry is causal: it is stamped no earlier than the failed
// decode that caused it ends, and the segment's re-read starts no earlier
// than the retry.
func TestScanRetryTraceIsCausal(t *testing.T) {
	srv := newTestServer(t, true)
	srv.Store().RetryBase = 0
	loadTable(t, srv, 3000) // 3 segments
	inj := faults.New(99)
	inj.Arm(faults.Point{Kind: faults.CorruptBlob, Prob: 1, Budget: 2})
	srv.Store().svc.Faults = inj
	tr := obs.New()
	spec := ScanSpec{Trace: tr}
	if _, err := srv.Scan(context.Background(), "lineitem", spec, func(*columnar.Batch) error { return nil }); err != nil {
		t.Fatal(err)
	}
	meta, err := srv.Table("lineitem")
	if err != nil {
		t.Fatal(err)
	}
	// Per segment, its reads and decodes in drawing order: the j-th retry
	// of a segment follows its j-th decode and precedes its (j+1)-th read.
	reads, decodes := map[int64][]obs.Span{}, map[int64][]obs.Span{}
	for _, sp := range tr.Spans() {
		switch sp.Name {
		case "read":
			reads[sp.Seq] = append(reads[sp.Seq], sp)
		case "decode":
			decodes[sp.Seq] = append(decodes[sp.Seq], sp)
		}
	}
	retried, n := map[int64]int{}, 0
	for _, ev := range tr.Events() {
		if ev.Name != "retry" {
			continue
		}
		seg := int64(-1)
		for i, key := range meta.SegmentKeys {
			if strings.HasPrefix(ev.Detail, key+": ") {
				seg = int64(i)
			}
		}
		j := retried[seg]
		retried[seg]++
		n++
		if seg < 0 || j >= len(decodes[seg]) || j+1 >= len(reads[seg]) {
			t.Fatalf("retry %q: segment %d has %d decodes and %d reads", ev.Detail, seg, len(decodes[seg]), len(reads[seg]))
		}
		if failed := decodes[seg][j]; ev.At < failed.End {
			t.Errorf("retry %d of segment %d at %v, before its failed decode ends at %v", j, seg, ev.At, failed.End)
		}
		if reread := reads[seg][j+1]; reread.Start < ev.At {
			t.Errorf("segment %d re-read at %v, before its retry at %v", seg, reread.Start, ev.At)
		}
	}
	if n != 2 {
		t.Fatalf("%d retry events, want 2", n)
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
