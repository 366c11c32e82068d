package experiments

import (
	"testing"
	"time"
)

func TestE21LifecycleShape(t *testing.T) {
	res, err := E21Lifecycle(6000, E21Options{
		Deadline:     2 * time.Second,
		OfferedLoads: []int{1, 16},
	})
	if err != nil {
		t.Fatal(err)
	}
	checkE21Recovery(t, res)

	if len(res.Overload) != 2 {
		t.Fatalf("overload rows = %d, want 2", len(res.Overload))
	}
	for _, row := range res.Overload {
		if row.OK < 1 {
			t.Errorf("load=%d: no query completed", row.Offered)
		}
		if row.OK+row.Shed+row.Expired != row.Offered {
			t.Errorf("load=%d: ok %d + shed %d + expired %d != offered %d",
				row.Offered, row.OK, row.Shed, row.Expired, row.Offered)
		}
		// Admitted queries finish inside the deadline (that is what kept
		// them in the OK bucket); allow scheduling slack on the wall clock.
		if row.P99 > res.Deadline+500*time.Millisecond {
			t.Errorf("load=%d: admitted p99 %v blew through the %v deadline",
				row.Offered, row.P99, res.Deadline)
		}
	}
	// A 16-query burst against 2 slots and a 2-deep queue must shed.
	last := res.Overload[len(res.Overload)-1]
	if last.Shed == 0 {
		t.Errorf("load=%d: nothing shed against 2 slots + 2-deep queue", last.Offered)
	}

	for _, key := range []string{
		"waste_partial@e3", "waste_whole@e3", "waste_volcano@e3",
		"ok@load16", "shed@load16", "p99_ms@load16",
	} {
		if _, ok := res.Table.Metrics[key]; !ok {
			t.Errorf("metric %q missing from table", key)
		}
	}
}

// At 50,000 rows a segment is 4,167 rows, which the scan ships as two
// batches: the strikes, placed by checkpoint epoch, still follow a
// completed epoch, and every kill resumes past epoch 0.
func TestE21RecoveryWithTwoBatchSegments(t *testing.T) {
	res, err := E21Lifecycle(50000, E21Options{Deadline: 2 * time.Second, OfferedLoads: []int{1}})
	if err != nil {
		t.Fatal(err)
	}
	checkE21Recovery(t, res)
}

// checkE21Recovery holds E21's recovery half to what each discipline
// guarantees at every strike.
func checkE21Recovery(t *testing.T, res *E21Result) {
	t.Helper()
	if len(res.Recovery) != len(e21Strikes) {
		t.Fatalf("recovery rows = %d, want %d", len(res.Recovery), len(e21Strikes))
	}
	for _, row := range res.Recovery {
		if row.Restarts != 1 || row.Checkpoints < 1 {
			t.Errorf("kill@e%d: restarts=%d checkpoints=%d, want 1 restart over >=1 checkpoints",
				row.StrikeAt, row.Restarts, row.Checkpoints)
		}
		// What a partial restart guarantees: the scan resumed past
		// segment 0, so fewer segments were scanned again than the whole
		// table a failover re-scans, and what it replayed is metered as
		// part of what the run lost. How many bytes that is depends on how
		// far the scan had run ahead of the struck stage — and the
		// whole-query waste, a separate run, just as much — so the two
		// are printed side by side, not compared.
		if row.PartialWaste <= 0 || row.PartialWaste > row.PartialRecovery {
			t.Errorf("kill@e%d: replayed %v, want within (0, recovery %v]",
				row.StrikeAt, row.PartialWaste, row.PartialRecovery)
		}
		if row.SegmentsScanned >= 2*e21Segments {
			t.Errorf("kill@e%d: partial restart scanned %d segments, want fewer than the %d of a full re-scan",
				row.StrikeAt, row.SegmentsScanned, 2*e21Segments)
		}
		if row.WholeWaste <= 0 {
			t.Errorf("kill@e%d: whole-query failover metered no wasted bytes", row.StrikeAt)
		}
		if row.VolcanoWaste <= 0 {
			t.Errorf("kill@e%d: volcano re-run metered no wasted bytes", row.StrikeAt)
		}
		if row.Failovers < 1 {
			t.Errorf("kill@e%d: whole-query discipline recorded no failover", row.StrikeAt)
		}
	}
}
