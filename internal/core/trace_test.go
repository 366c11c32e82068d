package core

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/fabric"
	"repro/internal/flow"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/sim"
	"repro/internal/workload"
)

// tracedDataFlow builds a dataflow engine with tracing on and segments
// small enough that a query streams many batches through the pipeline —
// the precondition for stage overlap to show in the timeline.
func tracedDataFlow(t *testing.T) (*DataFlowEngine, workload.LineitemConfig) {
	t.Helper()
	cfg := workload.DefaultLineitemConfig(testRows)
	data := workload.GenLineitem(cfg)
	df := NewDataFlowEngine(fabric.NewCluster(fabric.DefaultClusterConfig()))
	df.Tracing = true
	df.Storage.SegmentRows = 4096
	if err := df.CreateTable("lineitem", workload.LineitemSchema()); err != nil {
		t.Fatal(err)
	}
	if err := df.Load("lineitem", data); err != nil {
		t.Fatal(err)
	}
	return df, cfg
}

func TestDataFlowTraceShowsStageOverlap(t *testing.T) {
	df, cfg := tracedDataFlow(t)
	q := plan.NewQuery("lineitem").
		WithFilter(workload.SelectivityFilter(cfg, 0.5)).
		WithGroupBy(workload.PricingSummary())
	res, err := df.Execute(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	tr := res.Trace
	if tr == nil {
		t.Fatal("Tracing=true returned nil Result.Trace")
	}
	if len(tr.Spans()) == 0 {
		t.Fatal("trace has no spans")
	}
	if len(tr.Tracks()) < 3 {
		t.Fatalf("trace covers %d tracks, want a multi-device timeline: %v",
			len(tr.Tracks()), tr.Tracks())
	}
	cf := tr.ConcurrencyFactor()
	if cf <= 1.0 {
		t.Errorf("dataflow concurrency factor = %.3f, want > 1.0 (staged overlap)", cf)
	}
	// An admission event should annotate the placement decision.
	var admits int
	for _, ev := range tr.Events() {
		if ev.Name == "admit" {
			admits++
		}
	}
	if admits != 1 {
		t.Errorf("trace has %d admit events, want 1", admits)
	}
	// Meter series must be present and attributable.
	if len(tr.SeriesList()) == 0 {
		t.Error("trace has no meter series")
	}
}

func TestVolcanoTraceIsSerial(t *testing.T) {
	_, vo, cfg := newEngines(t)
	vo.Tracing = true
	q := plan.NewQuery("lineitem").
		WithFilter(workload.SelectivityFilter(cfg, 0.5)).
		WithGroupBy(workload.PricingSummary())
	res, err := vo.Execute(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	tr := res.Trace
	if tr == nil {
		t.Fatal("Tracing=true returned nil Result.Trace")
	}
	spans := tr.Spans()
	if len(spans) == 0 {
		t.Fatal("trace has no spans")
	}
	// One clock, pull execution: spans never overlap at all, across ALL
	// tracks, so the concurrency factor cannot exceed 1.
	for i := 1; i < len(spans); i++ {
		if spans[i].Start < spans[i-1].End {
			t.Fatalf("volcano spans overlap: %v then %v", spans[i-1], spans[i])
		}
	}
	if cf := tr.ConcurrencyFactor(); cf > 1.0 {
		t.Errorf("volcano concurrency factor = %.3f, want <= 1.0 (serial pull)", cf)
	}
	// The timeline must show the legacy data path: media fetch, network
	// transfer, CPU decode, CPU operators.
	kinds := map[string]int{}
	for _, sp := range spans {
		kinds[sp.Name]++
	}
	for _, want := range []string{"fetch", "xfer", "decode", "filter", "aggregate"} {
		if kinds[want] == 0 {
			t.Errorf("volcano trace has no %q spans (have %v)", want, kinds)
		}
	}

	// The span-carrying pull is the same function the untraced engine
	// runs: recording the timeline must not move a single meter.
	_, plain, _ := newEngines(t)
	want, err := plain.Execute(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	assertSameMeters(t, want.Stats, res.Stats)
}

// TestVolcanoConcurrentTracedExecutions: the trace and its clock belong
// to the execution, not the engine. On a warm pool (no run fetches, so
// every run records the same serial chain) two traced executions at once
// each return exactly a solo run's span list — neither writes the
// other's timeline. Run under -race.
func TestVolcanoConcurrentTracedExecutions(t *testing.T) {
	_, vo, cfg := newEngines(t)
	vo.Tracing = true
	q := plan.NewQuery("lineitem").
		WithFilter(workload.SelectivityFilter(cfg, 0.5)).
		WithGroupBy(workload.PricingSummary())
	if _, err := vo.Execute(context.Background(), q); err != nil { // warms the pool
		t.Fatal(err)
	}
	solo, err := vo.Execute(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	want := solo.Trace.Spans()
	if len(want) == 0 {
		t.Fatal("solo warm run recorded no spans")
	}
	got := make([][]obs.Span, 2)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := vo.Execute(context.Background(), q)
			if err != nil {
				t.Error(err)
				return
			}
			got[i] = res.Trace.Spans()
		}()
	}
	wg.Wait()
	for i, spans := range got {
		if !reflect.DeepEqual(spans, want) {
			t.Errorf("concurrent run %d recorded %d spans, the solo warm run %d; first differing pair:\n%v",
				i, len(spans), len(want), firstSpanDiff(spans, want))
		}
	}
}

// firstSpanDiff renders the first position where two span lists differ.
func firstSpanDiff(got, want []obs.Span) string {
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			return fmt.Sprintf("#%d got %+v want %+v", i, got[i], want[i])
		}
	}
	return "one list is a prefix of the other"
}

// assertSameMeters requires two runs to have charged the fabric
// identically: same makespan, same bytes and busy time per resource.
func assertSameMeters(t *testing.T, want, got ExecStats) {
	t.Helper()
	if got.SimTime != want.SimTime || got.MovedBytes != want.MovedBytes ||
		got.CPUBytes != want.CPUBytes || got.CPUBusy != want.CPUBusy ||
		got.PeakMemory != want.PeakMemory || got.ResultRows != want.ResultRows {
		t.Errorf("stats differ:\n  got  %+v\n  want %+v", got, want)
	}
	if !reflect.DeepEqual(got.DeviceBusy, want.DeviceBusy) {
		t.Errorf("device busy %v, want %v", got.DeviceBusy, want.DeviceBusy)
	}
	if !reflect.DeepEqual(got.LinkBytes, want.LinkBytes) {
		t.Errorf("link bytes %v, want %v", got.LinkBytes, want.LinkBytes)
	}
}

// TestTraceDeterministic runs the identical seeded query on two fresh
// engine pairs and requires identical spans, events and series — the
// property CI relies on to diff traces across runs.
func TestTraceDeterministic(t *testing.T) {
	render := func() (string, string) {
		df, cfg := tracedDataFlow(t)
		q := plan.NewQuery("lineitem").
			WithFilter(workload.SelectivityFilter(cfg, 0.5)).
			WithGroupBy(workload.PricingSummary())
		res, err := df.Execute(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}

		_, vo, _ := newEngines(t)
		vo.Tracing = true
		vres, err := vo.Execute(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		dump := func(tr *obs.Trace) string { return fmt.Sprint(tr.Spans(), tr.Events(), tr.SeriesList()) }
		return dump(res.Trace), dump(vres.Trace)
	}
	df1, vo1 := render()
	df2, vo2 := render()
	if df1 != df2 {
		t.Error("dataflow trace differs between identical runs")
	}
	if vo1 != vo2 {
		t.Error("volcano trace differs between identical runs")
	}
}

func TestTracingOffReturnsNilTrace(t *testing.T) {
	df, vo, cfg := newEngines(t)
	q := plan.NewQuery("lineitem").
		WithFilter(workload.SelectivityFilter(cfg, 0.05)).
		WithProjection(workload.LOrderKey)
	dres, err := df.Execute(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if dres.Trace != nil {
		t.Error("dataflow Result.Trace non-nil with Tracing=false")
	}
	vres, err := vo.Execute(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if vres.Trace != nil {
		t.Error("volcano Result.Trace non-nil with Tracing=false")
	}
}

func TestExecStatsControlOverhead(t *testing.T) {
	var s ExecStats
	if got := s.ControlOverhead(); got != 0 {
		t.Errorf("no ports: ControlOverhead = %v, want 0", got)
	}
	s.Ports = []flow.PortStats{
		{Name: "a", DataMessages: 6, CreditMessages: 2},
		{Name: "b", DataMessages: 2, CreditMessages: 2},
	}
	if got := s.ControlOverhead(); got != 0.5 {
		t.Errorf("ControlOverhead = %v, want 0.5 (4 credit / 8 data)", got)
	}
	s.Ports = []flow.PortStats{{Name: "idle", CreditMessages: 3}}
	if got := s.ControlOverhead(); got != 0 {
		t.Errorf("zero data messages: ControlOverhead = %v, want 0", got)
	}
}

func TestExecStatsStringRecoveryLine(t *testing.T) {
	clean := ExecStats{Engine: "dataflow", Variant: "full-offload", ResultRows: 7}
	if out := clean.String(); strings.Contains(out, "recovery:") {
		t.Errorf("clean stats printed a recovery line:\n%s", out)
	}
	hurt := ExecStats{
		Engine: "dataflow", Variant: "cpu-only", ResultRows: 7,
		QueryRetries: 2, Failovers: 1, DegradedPlacement: true,
		RecoveryBytes: 4096, RecoveryTime: sim.VTime(12345),
	}
	hurt.Scan.ReplicaFallbacks = 1
	out := hurt.String()
	for _, want := range []string{"recovery:", "query-retries=2", "failovers=1", "degraded=true", "store reads: replicaFallbacks=1"} {
		if !strings.Contains(out, want) {
			t.Errorf("recovery line missing %q:\n%s", want, out)
		}
	}
}
