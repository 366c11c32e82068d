package experiments

import (
	"testing"
	"time"
)

// e26TestOptions shrinks the run so the heal loop completes in a few
// hundred milliseconds per arm while the repair storm still visibly
// contends with the foreground.
func e26TestOptions() E26Options {
	return E26Options{
		Trials:      4,
		BaseLatency: 200 * time.Microsecond,
		Workers:     2,
		Segments:    12,
		DamageEvery: 3,
		Contention:  2,
		HealWindow:  250 * time.Millisecond,
		DeadAfter:   10 * time.Millisecond,
		Streams:     4,
	}
}

func TestE26SelfHealShape(t *testing.T) {
	res, err := E26SelfHeal(3000, e26TestOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d, want off/throttled/unthrottled", len(res.Rows))
	}
	byArm := map[string]E26Row{}
	for _, row := range res.Rows {
		byArm[row.Arm] = row
	}
	off, thr, unthr := byArm["off"], byArm["throttled"], byArm["unthrottled"]

	// The no-repair arm detects and routes around but never heals:
	// the store stays under-replicated, every later query keeps paying
	// the corrupt-read fallback tax, and no repair work is recorded.
	if off.AtRiskEnd == 0 {
		t.Error("no-repair arm ended fully replicated — it must not heal")
	}
	if off.CorruptSteady == 0 {
		t.Error("no-repair arm stopped paying the fallback tax without a repair")
	}
	if off.ReadRepairs+off.ScrubHeals+off.Recloned != 0 || off.RepairBytes != 0 {
		t.Errorf("no-repair arm recorded repair work: %+v", off)
	}

	// Both repair arms close the loop: at-risk drains to zero, damage is
	// healed, the dead replica is re-cloned with a bounded recorded MTTR,
	// and the experiment itself verified zero post-heal overhead.
	for _, row := range []E26Row{thr, unthr} {
		if row.AtRiskEnd != 0 {
			t.Errorf("%s arm ended with %d objects at risk", row.Arm, row.AtRiskEnd)
		}
		if row.CorruptSteady != 0 {
			t.Errorf("%s arm still pays %d corrupt reads after the heal", row.Arm, row.CorruptSteady)
		}
		if row.ReadRepairs+row.ScrubHeals == 0 {
			t.Errorf("%s arm healed no damaged blobs", row.Arm)
		}
		if row.Recloned == 0 {
			t.Errorf("%s arm re-cloned nothing despite a dead replica", row.Arm)
		}
		if row.MTTR <= 0 {
			t.Errorf("%s arm recorded no MTTR for its completed restoration", row.Arm)
		}
		if row.RepairBytes == 0 {
			t.Errorf("%s arm wrote no repair bytes", row.Arm)
		}
	}

	// The throttle is the point, but its effect on foreground p99 is a
	// wall-clock ratio of two noisy tails — reported (p99x@*), asserted at
	// dfbench scale, not here. What the arms fix without a stopwatch's
	// noise is that the pacing was in force: the throttled arm re-clones
	// one replica's worth of bytes — a third of the store — through a
	// byte budget sized to release the whole store once per HealWindow,
	// starting empty. Sleeps only overshoot, so its MTTR has a floor of
	// HealWindow/3 (checked at /4, clear of rounding) that the unpaced
	// storm does not.
	if thr.P99 == 0 || unthr.P99 == 0 || off.P99 == 0 {
		t.Fatal("missing p99 samples")
	}
	if floor := e26TestOptions().HealWindow / 4; thr.MTTR < floor {
		t.Errorf("throttled MTTR %v below the %v its repair byte budget allows: pacing was not in force",
			thr.MTTR, floor)
	}

	if res.Table == nil || len(res.Table.Rows) != len(res.Rows) {
		t.Fatal("table rows do not match arm rows")
	}
	m := res.Table.Metrics
	if m["faultSeed"] != e26Seed {
		t.Errorf("table fault seed = %v, want %#x", m["faultSeed"], e26Seed)
	}
	if m["recloned"] == 0 || m["readRepairs"]+m["scrubRepairs"] == 0 {
		t.Error("table carries no repair counters for the -json artifact")
	}
	for _, m := range []string{"p99_us@off", "p99x@throttled", "p99x@unthrottled",
		"mttr_ms@throttled", "mttr_ms@unthrottled", "at_risk_end@off"} {
		if _, ok := res.Table.Metrics[m]; !ok {
			t.Errorf("missing %s metric", m)
		}
	}
}

func TestE26NoHealArm(t *testing.T) {
	opts := e26TestOptions()
	opts.Trials = 2
	opts.NoHeal = true
	res, err := E26SelfHeal(2000, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0].Arm != "off" {
		t.Fatalf("NoHeal run produced %d rows (want just the no-repair arm)", len(res.Rows))
	}
}
