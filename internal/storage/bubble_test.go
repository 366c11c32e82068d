//go:build goexperiment.synctest

//go:debug asynctimerchan=0

package storage

import (
	"testing"
	"testing/synctest"
)

// The store's wall-clock tests, each run unchanged in a synctest bubble:
// the wall clock the store sleeps and times on is the bubble's, which
// advances only when every goroutine in it is blocked, so a hedge delay,
// a late copy's timer or a deadline fires where the test's durations
// put it, however loaded the host. The plain tests stay as they are.
// Run with GOEXPERIMENT=synctest (Go 1.24):
//
//	GOEXPERIMENT=synctest go test ./internal/storage -run Bubble -count=20

func TestBubbleHedgedReadWinsOverDegradedReplica(t *testing.T) {
	synctest.Run(func() { TestHedgedReadWinsOverDegradedReplica(t) })
}

func TestBubbleSpeculativeRerunExactlyOnce(t *testing.T) {
	synctest.Run(func() { TestSpeculativeRerunExactlyOnce(t) })
}

func TestBubbleSpeculationRespectsRetryBudget(t *testing.T) {
	synctest.Run(func() { TestSpeculationRespectsRetryBudget(t) })
}

func TestBubbleBackoffHonorsContext(t *testing.T) {
	synctest.Run(func() { TestBackoffHonorsContext(t) })
}
