//go:build goexperiment.synctest

//go:debug asynctimerchan=0

package experiments

import (
	"slices"
	"testing"
	"testing/synctest"
)

// The wall-clock experiments' tests, each run unchanged in a synctest
// bubble: the sleeps, hedge delays, deadlines and heal ticks they time
// run on the bubble's clock, which advances only when every goroutine in
// it is blocked, so a loaded host cannot stretch a latency past its
// bound. E25 has no twin: in a bubble CPU work takes no time, so no
// query runs late and its SLO never burns. The plain tests stay as they
// are. Run with GOEXPERIMENT=synctest (Go 1.24):
//
//	GOEXPERIMENT=synctest go test ./internal/experiments -run Bubble -count=20

func TestBubbleE19AvailabilityShape(t *testing.T) {
	synctest.Run(func() { TestE19AvailabilityShape(t) })
}

func TestBubbleE21LifecycleShape(t *testing.T) {
	synctest.Run(func() { TestE21LifecycleShape(t) })
}

func TestBubbleE21RecoveryWithTwoBatchSegments(t *testing.T) {
	synctest.Run(func() { TestE21RecoveryWithTwoBatchSegments(t) })
}

func TestBubbleE24TailLatencyShape(t *testing.T) {
	synctest.Run(func() { TestE24TailLatencyShape(t) })
}

func TestBubbleE24NoHedgeArm(t *testing.T) {
	synctest.Run(func() { TestE24NoHedgeArm(t) })
}

func TestBubbleE26SelfHealShape(t *testing.T) {
	synctest.Run(func() { TestE26SelfHealShape(t) })
}

func TestBubbleE26NoHealArm(t *testing.T) {
	synctest.Run(func() { TestE26NoHealArm(t) })
}

// In a bubble E24's injected latencies are exact, so its catalogue
// table at 6,000 rows (quantiles, hedge and speculation counts,
// speedups) repeats byte for byte, and testdata/bubble/e24.txt pins it
// (-update rewrites it). E19, E21 and E26 have no such golden: their
// tables still differ between bubble runs, because which goroutine runs
// first decides how far a scan gets before a fault, a kill or a heal.
func TestBubbleE24Golden(t *testing.T) {
	i := slices.IndexFunc(Catalogue, func(e Experiment) bool { return e.ID == "E24" })
	var tab *Table
	var err error
	synctest.Run(func() { tab, err = Catalogue[i].Run(6000, Options{}) })
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "bubble/e24.txt", []byte(tab.String()))
}
