package experiments

import (
	"reflect"
	"testing"
)

func TestE19AvailabilityShape(t *testing.T) {
	res, err := E19Availability(6000)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("rows = %d, want 5 rate buckets", len(res.Rows))
	}
	base := res.Rows[0]
	if base.Rate != 0 {
		t.Fatalf("first bucket rate = %g, want 0", base.Rate)
	}
	if base.DFOK[0] != base.DFOK[1] || base.VoOK[0] != base.VoOK[1] {
		t.Fatalf("fault-free bucket lost queries: df %v vo %v", base.DFOK, base.VoOK)
	}
	if base.Retries+base.Fallbacks+base.Failovers != 0 {
		t.Error("fault-free bucket recorded recovery work")
	}

	var recovery, failovers int64
	for _, row := range res.Rows {
		// Recovery must absorb every injected fault: full availability
		// across the sweep while the detect-only baseline degrades.
		if row.DFOK[0] != row.DFOK[1] {
			t.Errorf("rate %g: data-flow succeeded %v", row.Rate, row.DFOK)
		}
		if row.DFOK[0] < row.VoOK[0] {
			t.Errorf("rate %g: baseline (%d) outlived recovering engine (%d)", row.Rate, row.VoOK[0], row.DFOK[0])
		}
		recovery += row.Retries + row.Fallbacks
		failovers += row.Failovers
	}
	top := res.Rows[len(res.Rows)-1]
	if top.VoOK[0] == top.VoOK[1] {
		t.Errorf("rate %g: detect-only volcano lost no queries (%v) — faults not exercised",
			top.Rate, top.VoOK)
	}
	if recovery == 0 {
		t.Error("sweep recorded no retries or replica fallbacks")
	}
	if failovers == 0 {
		t.Error("device kill triggered no failover")
	}
	// Surviving on a degraded placement costs time.
	if top.DFInflation <= 1.0 {
		t.Errorf("makespan inflation at top rate = %g, want > 1", top.DFInflation)
	}

	// Same seed, same workload: everything sequential must reproduce
	// byte for byte — the volcano schedule in every bucket, and the
	// data-flow schedule and derived numbers in every bucket without a
	// mid-query device kill (an aborted attempt's scan progress at
	// cancellation, and hence its fault draws, is scheduling-dependent).
	again, err := E19Availability(6000)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.VoSchedules, again.VoSchedules) {
		t.Error("volcano fault schedules diverged between identical runs")
	}
	for i, row := range res.Rows {
		if row.Rate >= e19KillRate {
			// Availability outcomes stay deterministic even with a kill.
			if row.DFOK[0] != again.Rows[i].DFOK[0] || row.VoOK[0] != again.Rows[i].VoOK[0] {
				t.Errorf("rate %g: success counts diverged between identical runs", row.Rate)
			}
			continue
		}
		if res.Schedules[i] != again.Schedules[i] {
			t.Errorf("rate %g: data-flow fault schedule diverged between identical runs", row.Rate)
		}
		if !reflect.DeepEqual(row, again.Rows[i]) {
			t.Errorf("rate %g: sweep results diverged between identical runs", row.Rate)
		}
	}
}
