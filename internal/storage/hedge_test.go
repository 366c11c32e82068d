package storage

import (
	"context"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/resilience"
	"repro/internal/sim"
)

// Gray-failure defenses: hedged replica reads, speculative morsel
// re-execution, and the metering invariants that keep both honest —
// logical totals count each payload exactly once, duplicate work lands
// only in the hedge/speculation counters, and no racer goroutine
// outlives its read.

// waitGoroutines polls until the goroutine count settles back to the
// baseline, then fails with a full stack dump if it never does.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		buf := make([]byte, 1<<20)
		t.Fatalf("goroutines leaked: %d > baseline %d\n%s",
			n, base, buf[:runtime.Stack(buf, true)])
	}
}

// A hedged read racing a badly degraded primary must return the healthy
// replica's data, meter the duplicate work on the hedge side only, and
// teach the health tracker enough to demote the gray replica for the
// next read.
func TestHedgedReadWinsOverDegradedReplica(t *testing.T) {
	o := NewObjectStore(nil)
	o.SetReplicas(2)
	o.BaseLatency = 2 * time.Millisecond
	payload := []byte("hedged payload bytes")
	o.Put("k", payload)

	// Replica 0 serves 50x slower — long past any race margin — while
	// replica 1 stays healthy.
	inj := faults.New(1)
	inj.Arm(faults.Point{Kind: faults.DegradedDevice, Target: "store/r0",
		Prob: 1, Severity: 50})
	o.svc.Faults = inj
	pol := resilience.NewPolicy()
	// One sample is enough history for this test's steering assertions.
	pol.Health = resilience.NewTracker(0.2, 1)
	o.svc.Resilience = pol

	opsBefore, bytesBefore := o.Meter.Ops(), o.Meter.Bytes() // Put metered too
	base := runtime.NumGoroutine()
	got, err := o.Get(context.Background(), "k")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(payload) {
		t.Fatalf("hedged read returned %q", got)
	}
	h := o.Totals()
	if h.HedgedReads != 1 || h.HedgeWins != 1 {
		t.Fatalf("hedge stats = %+v, want exactly one launched and won", h)
	}
	// The winning payload is hedge-side work; the cancelled primary
	// charged its op but never delivered bytes. Main + hedge together
	// account for the payload exactly once.
	if h.HedgeBytes != sim.Bytes(len(payload)) {
		t.Errorf("hedge bytes = %d, want %d", h.HedgeBytes, len(payload))
	}
	if b := o.Meter.Bytes() - bytesBefore; b != 0 {
		t.Errorf("main meter read bytes = %d, want 0 (primary was cancelled mid-read)", b)
	}
	if ops := o.Meter.Ops() - opsBefore; ops != 1 {
		t.Errorf("main meter read ops = %d, want the primary's single attempt", ops)
	}

	// The cancelled primary still fed the health tracker a lower bound,
	// so ranking now prefers replica 1 outright.
	if n := pol.Health.Samples("store/r0"); n == 0 {
		t.Error("cancelled slow read left replica 0 unsampled — it would stay primary forever")
	}
	waitGoroutines(t, base)

	// Second read: steering sends the primary to the healthy replica and
	// no hedge fires, so the payload lands on the main meter.
	got, err = o.Get(context.Background(), "k")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(payload) {
		t.Fatalf("steered read returned %q", got)
	}
	if h := o.Totals(); h.HedgedReads != 1 {
		t.Errorf("steered read still hedged: %+v", h)
	}
	if b := o.Meter.Bytes() - bytesBefore; b != sim.Bytes(len(payload)) {
		t.Errorf("main meter read bytes after steered read = %d, want %d", b, len(payload))
	}
}

// Hedged reads under repeated load must not leak racer goroutines and
// must keep the conservation invariant: every byte is either primary
// work on the main meter or duplicate work on the hedge counters.
func TestHedgedReadNoLeakNoDoubleCount(t *testing.T) {
	o := NewObjectStore(nil)
	o.SetReplicas(2)
	o.BaseLatency = time.Millisecond
	payload := make([]byte, 512)
	keys := []string{"a", "b", "c"}
	for _, k := range keys {
		o.Put(k, payload)
	}
	inj := faults.New(2)
	inj.Arm(faults.Point{Kind: faults.DegradedDevice, Target: "store/r0",
		Prob: 1, Severity: 40})
	o.svc.Faults = inj
	o.svc.Resilience = resilience.NewPolicy()

	bytesBefore := o.Meter.Bytes() // Put metered too
	base := runtime.NumGoroutine()
	reads := 0
	for round := 0; round < 4; round++ {
		for _, k := range keys {
			got, err := o.Get(context.Background(), k)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(payload) {
				t.Fatalf("read %q returned %d bytes", k, len(got))
			}
			reads++
		}
	}
	total := o.Meter.Bytes() - bytesBefore + o.Totals().HedgeBytes
	if want := sim.Bytes(reads * len(payload)); total != want {
		t.Errorf("main+hedge bytes = %d, want %d: payloads double- or under-counted", total, want)
	}
	waitGoroutines(t, base)
}

// A parallel scan whose last morsel straggles re-executes it; the
// duplicate wins (the injected slowness has budget for one fire), the
// stuck copy is cancelled, and the scan's logical output and totals are
// identical to an undisturbed serial scan.
func TestSpeculativeRerunExactlyOnce(t *testing.T) {
	want, wantStats, _ := scanAll(t, func() *Server {
		srv := newTestServer(t, true)
		loadTable(t, srv, 7000)
		return srv
	}(), ScanSpec{})

	srv := newTestServer(t, true)
	loadTable(t, srv, 7000)
	store := srv.Store()
	store.BaseLatency = 2 * time.Millisecond
	// Only the last-claimed morsel's read is degraded, and only once —
	// so the speculative duplicate reads at full health and wins.
	inj := faults.New(3)
	inj.Arm(faults.Point{Kind: faults.DegradedDevice,
		Target: "store/r0/lineitem/seg-000006", Prob: 1, Budget: 1, Severity: 16})
	store.svc.Faults = inj
	pol := resilience.NewPolicy()
	pol.Hedge = false // isolate speculation from hedging
	store.svc.Resilience = pol

	base := runtime.NumGoroutine()
	got, stats, _ := scanAll(t, srv, ScanSpec{Workers: 2})
	if !reflect.DeepEqual(rowsOf(got), rowsOf(want)) {
		t.Fatal("speculated scan emitted different rows than the serial scan")
	}
	if stats.SpeculativeMorsels != 1 || stats.SpeculativeWins != 1 {
		t.Fatalf("speculation = %d launched / %d won, want 1/1 (stats %+v)",
			stats.SpeculativeMorsels, stats.SpeculativeWins, stats)
	}
	// Winner-only logical totals: the cancelled primary never reached
	// its media charge, so even the loser-side bytes stay zero here.
	if stats.MediaBytes != wantStats.MediaBytes {
		t.Errorf("MediaBytes = %d, want the serial scan's %d", stats.MediaBytes, wantStats.MediaBytes)
	}
	if stats.ShippedRows != wantStats.ShippedRows {
		t.Errorf("ShippedRows = %d, want %d", stats.ShippedRows, wantStats.ShippedRows)
	}
	if stats.SpeculativeBytes != 0 {
		t.Errorf("SpeculativeBytes = %d, want 0 (loser cancelled mid-read)", stats.SpeculativeBytes)
	}
	waitGoroutines(t, base)
}

// An exhausted retry budget stops speculation from launching at all:
// the scan serves slow instead of amplifying load.
func TestSpeculationRespectsRetryBudget(t *testing.T) {
	srv := newTestServer(t, true)
	loadTable(t, srv, 7000)
	store := srv.Store()
	store.BaseLatency = 2 * time.Millisecond
	inj := faults.New(3)
	inj.Arm(faults.Point{Kind: faults.DegradedDevice,
		Target: "store/r0/lineitem/seg-000006", Prob: 1, Budget: 1, Severity: 8})
	store.svc.Faults = inj
	pol := resilience.NewPolicy()
	pol.Hedge = false
	pol.Budget = resilience.NewBudget(0, 1)
	pol.Budget.TryAcquire() // drain the startup token: nothing to spend
	store.svc.Resilience = pol

	_, stats, _ := scanAll(t, srv, ScanSpec{Workers: 2})
	if stats.SpeculativeMorsels != 0 {
		t.Errorf("speculated %d morsels with an empty retry budget", stats.SpeculativeMorsels)
	}
	if got := pol.Budget.Exhausted(); got == 0 {
		t.Error("denied speculation did not count toward Budget.Exhausted")
	} else if stats.RetryBudgetExhausted != got {
		t.Errorf("scan reports %d budget denials, the budget counted %d", stats.RetryBudgetExhausted, got)
	}
}

// Retry backoff must honor the caller's context: an expired deadline
// surfaces immediately instead of after the full exponential sleep.
func TestBackoffHonorsContext(t *testing.T) {
	o := NewObjectStore(nil)
	o.RetryBase = 200 * time.Millisecond // first backoff alone dwarfs the deadline
	o.Put("k", []byte("x"))
	inj := faults.New(4)
	inj.Arm(faults.Point{Kind: faults.TransientRead, Prob: 1})
	o.svc.Faults = inj

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := o.Get(ctx, "k")
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("Get succeeded through an always-firing transient fault")
	}
	if elapsed >= o.RetryBase {
		t.Errorf("Get took %v, want well under the %v backoff: ctx expiry must cut the sleep",
			elapsed, o.RetryBase)
	}
}
