//go:build goexperiment.synctest

//go:debug asynctimerchan=0

package core

import (
	"testing"
	"testing/synctest"
)

// The engine's wall-clock wiring test, run unchanged in a synctest
// bubble: the repair controller's burn-rate yields and the test's wait
// for the first of them run on the bubble's clock, which advances only
// when every goroutine in it is blocked, so the wait's 10 s limit is
// never near. The plain test stays as it is. Run with
// GOEXPERIMENT=synctest (Go 1.24):
//
//	GOEXPERIMENT=synctest go test ./internal/core -run Bubble -count=20

func TestBubbleEveryLayerReadsTheSameServicesInAnyOrder(t *testing.T) {
	synctest.Run(func() { TestEveryLayerReadsTheSameServicesInAnyOrder(t) })
}
