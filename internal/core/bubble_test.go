//go:build goexperiment.synctest

//go:debug asynctimerchan=0

package core

import (
	"testing"
	"testing/synctest"
)

// The engine's wall-clock wiring test, run unchanged in a synctest
// bubble: the repair controller's short context deadline runs on the
// bubble's clock, which advances only when every goroutine in it is
// blocked, so a loaded host cannot expire it early. The plain test stays
// as it is. Run with GOEXPERIMENT=synctest (Go 1.24):
//
//	GOEXPERIMENT=synctest go test ./internal/core -run Bubble -count=20

func TestBubbleEveryLayerReadsTheSameServicesInAnyOrder(t *testing.T) {
	synctest.Run(func() { TestEveryLayerReadsTheSameServicesInAnyOrder(t) })
}
