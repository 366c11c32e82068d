package experiments

import (
	"testing"

	"repro/internal/obs/metrics"
)

// e25TestOptions shrinks the arms so the test stays fast: fewer timed
// reps, a shorter accuracy stream, and a burst ramp that still ends deep
// in overload for a 2-slot scheduler. The top burst runs twice: when all
// of the first one enqueues before any query finishes, burn only crosses
// the shed threshold as it drains, and it is the repeat that arrives to
// a burning SLO and sheds.
func e25TestOptions() E25Options {
	return E25Options{
		OverheadTrials: 6,
		Reps:           2,
		Trials:         28,
		Workers:        2,
		Bursts:         []int{2, 4, 12, 24, 24},
	}
}

func TestE25TelemetryShape(t *testing.T) {
	res, err := E25Telemetry(3000, e25TestOptions())
	if err != nil {
		t.Fatal(err)
	}

	// Telemetry must observe the simulation, never perturb it: both
	// overhead arms meter bit-identical virtual busy time.
	if !res.BusyIdentical {
		t.Error("instrumented arm metered different virtual busy time than the bare arm")
	}
	// The wall-clock budget is 2%; a loaded CI worker adds noise on top
	// of a sub-millisecond denominator, so the test bound is generous.
	// E25's reported overhead_pct is the number the claim rides on.
	if res.OverheadPct > 50 {
		t.Errorf("instrumentation overhead = %.1f%%, want well under 50%% even on noisy hardware",
			res.OverheadPct)
	}

	// HDR histogram quantiles against exact nearest-rank per-query
	// SimTime: the log-linear buckets promise <= 1% relative error.
	for _, q := range []string{"p50", "p95", "p99"} {
		if errPct, ok := res.QuantileErrPct[q]; !ok || errPct > 1 {
			t.Errorf("%s histogram error = %.3f%% (present=%v), want <= 1%%", q, errPct, ok)
		}
	}

	// Per-tenant counter sums must reproduce fleet totals exactly.
	if !res.AttributionExact {
		t.Error("per-tenant attribution did not sum to fleet totals exactly")
	}

	// The overload ramp must shed, and the burn-rate signal must lead
	// the shedding, not trail it.
	if res.FirstShedBurst < 0 {
		t.Fatalf("no burst shed: bursts = %+v", res.Bursts)
	}
	if res.BurnCrossBurst < 0 || res.BurnCrossBurst > res.FirstShedBurst {
		t.Errorf("burn crossed 1 at burst %d, first shed at burst %d: the SLO signal must lead",
			res.BurnCrossBurst, res.FirstShedBurst)
	}
	// Shedding is admission control, not an outage: every burst still
	// admitted the scheduler's two slots' worth of queries.
	for _, b := range res.Bursts {
		if b.Admitted == 0 {
			t.Errorf("burst %d admitted nothing", b.Size)
		}
	}

	if res.Table == nil || len(res.Table.Rows) == 0 {
		t.Fatal("missing rendered table")
	}
	for _, m := range []string{"overhead_pct", "q99_err_pct", "attribution_exact",
		"slo_leads_shed", "sheds_total"} {
		if _, ok := res.Table.Metrics[m]; !ok {
			t.Errorf("missing %s metric in -json artifact", m)
		}
	}
	if res.Table.Metrics["attribution_exact"] != 1 {
		t.Error("attribution_exact metric is not 1")
	}
	if res.Table.Metrics["slo_leads_shed"] != 1 {
		t.Error("slo_leads_shed metric is not 1")
	}
}

func TestE25MirrorsCallerRegistry(t *testing.T) {
	opts := e25TestOptions()
	opts.Bursts = []int{2} // the mirror rides the accuracy arm only
	opts.Trials = 6
	reg := metrics.New()
	opts.Registry = reg
	if _, err := E25Telemetry(2000, opts); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("fleet.queries").Value(); got != int64(opts.Trials) {
		t.Errorf("caller registry saw %d queries, want %d", got, opts.Trials)
	}
	if reg.Histogram("query.simtime.vns").Count() != int64(opts.Trials) {
		t.Error("caller registry histogram missed observations")
	}
}
