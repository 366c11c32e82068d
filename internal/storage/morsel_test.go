package storage

import (
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/resilience"
)

// A morsel's late-copy timer is fixed when it starts. The first morsel
// starts before any has completed, so it is never copied however long
// it stalls — not even once the other worker has finished every other
// segment and sits idle. The last starts after at least SpecMinSamples
// completions (two workers, seven segments: five have finished when it
// is claimed), so its stall is copied, exactly once, and the copy is
// delivered.
func TestLateCopyOnlyAfterMinSamples(t *testing.T) {
	for _, tc := range []struct {
		seg          string
		copies, wins int64
	}{
		{"seg-000000", 0, 0},
		{"seg-000006", 1, 1},
	} {
		t.Run(tc.seg, func(t *testing.T) {
			srv := newTestServer(t, true)
			loadTable(t, srv, 7000)
			store := srv.Store()
			// A late copy's timer is about 3 x 4 ms: far below the stall,
			// and far above a healthy morsel's scheduling noise.
			store.BaseLatency = 4 * time.Millisecond
			const severity = 24
			inj := faults.New(5)
			// Budget 1: only the segment's first read stalls, so a late
			// copy reads at full health.
			inj.Arm(faults.Point{Kind: faults.DegradedDevice,
				Target: "store/r0/lineitem/" + tc.seg, Prob: 1, Budget: 1, Severity: severity})
			store.svc.Faults = inj
			pol := resilience.NewPolicy()
			pol.Hedge = false // isolate speculation from hedging
			store.svc.Resilience = pol

			start := time.Now()
			got, stats, _ := scanAll(t, srv, ScanSpec{Workers: 2})
			elapsed := time.Since(start)
			if totalRows(got) != 7000 {
				t.Fatalf("scanned %d rows, want 7000", totalRows(got))
			}
			if stats.SpeculativeMorsels != tc.copies || stats.SpeculativeWins != tc.wins {
				t.Errorf("late copies = %d started / %d delivered, want %d/%d",
					stats.SpeculativeMorsels, stats.SpeculativeWins, tc.copies, tc.wins)
			}
			// An uncopied stall is waited out.
			if stall := severity * store.BaseLatency; tc.copies == 0 && elapsed < stall {
				t.Errorf("scan took %v, less than the %v stall", elapsed, stall)
			}
		})
	}
}
