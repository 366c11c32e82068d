package flow

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"repro/internal/columnar"
	"repro/internal/fabric"
	"repro/internal/faults"
	"repro/internal/sim"
	"repro/internal/wiring"
)

// assertNoFlowLeaks registers a cleanup that fails the test if any
// goroutine is still parked inside this package once the test body
// returns. Failure and cancellation paths must tear every stage down.
func assertNoFlowLeaks(t *testing.T) {
	t.Helper()
	t.Cleanup(func() {
		deadline := time.Now().Add(2 * time.Second)
		for {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			leaked := 0
			for _, g := range bytes.Split(buf, []byte("\n\n")) {
				if bytes.Contains(g, []byte("repro/internal/flow.")) &&
					!bytes.Contains(g, []byte("assertNoFlowLeaks")) {
					leaked++
				}
			}
			if leaked == 0 {
				return
			}
			if time.Now().After(deadline) {
				t.Errorf("%d flow goroutines leaked:\n%s", leaked, buf)
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
	})
}

func TestOfflineDeviceFailsStage(t *testing.T) {
	assertNoFlowLeaks(t)
	dev := &fabric.Device{Name: "storage.nic", Kind: fabric.KindSmartNIC}
	dev.SetOffline(true)
	p := &Pipeline{
		Name:   "offline",
		Source: nBatchSource(2, 4),
		Stages: []Placed{{Stage: &passStage{name: "preagg"}, Device: dev}},
	}
	_, err := p.Run(context.Background(), func(*columnar.Batch) error { return nil })
	var se *StageError
	if !errors.As(err, &se) {
		t.Fatalf("err = %T %v, want *StageError", err, err)
	}
	if se.Device != "storage.nic" {
		t.Errorf("StageError.Device = %q", se.Device)
	}
	if !errors.Is(err, fabric.ErrDeviceOffline) {
		t.Errorf("err = %v, want ErrDeviceOffline in chain", err)
	}
}

func TestInjectedDeviceOfflineMidStream(t *testing.T) {
	assertNoFlowLeaks(t)
	dev := &fabric.Device{Name: "c0.nma", Kind: fabric.KindNearMemory}
	inj := faults.New(3)
	inj.Arm(faults.Point{Kind: faults.DeviceOffline, Target: "c0.nma", Prob: 1, Budget: 1})
	p := &Pipeline{
		Name:     "kill",
		Source:   nBatchSource(5, 4),
		Stages:   []Placed{{Stage: &passStage{name: "agg"}, Device: dev}},
		Services: &wiring.Services{Faults: inj},
	}
	_, err := p.Run(context.Background(), func(*columnar.Batch) error { return nil })
	if !errors.Is(err, fabric.ErrDeviceOffline) {
		t.Fatalf("err = %v, want injected device-offline failure", err)
	}
	if !dev.IsOffline() {
		t.Error("fired fault did not mark the device offline")
	}
	if inj.Fires() != 1 {
		t.Errorf("Fires = %d, want 1 (budget)", inj.Fires())
	}
}

func TestLinkFaultAbortsTransfer(t *testing.T) {
	assertNoFlowLeaks(t)
	link := &fabric.Link{Name: "net.flaky", A: "a", B: "b", Bandwidth: sim.GBPerSec, Latency: sim.Microsecond}
	inj := faults.New(5)
	inj.Arm(faults.Point{Kind: faults.LinkFlap, Target: "net.flaky", Prob: 1, Budget: 1})
	p := &Pipeline{
		Name:     "flap",
		Source:   nBatchSource(3, 4),
		Stages:   []Placed{{Stage: &passStage{name: "recv"}}},
		Paths:    [][]*fabric.Link{{link}},
		Services: &wiring.Services{Faults: inj},
	}
	_, err := p.Run(context.Background(), func(*columnar.Batch) error { return nil })
	var le *LinkError
	if !errors.As(err, &le) {
		t.Fatalf("err = %T %v, want *LinkError", err, err)
	}
	if le.Link != "net.flaky" {
		t.Errorf("LinkError.Link = %q", le.Link)
	}
	if !faults.IsTransient(err) {
		t.Error("link flap not classified transient")
	}
	if link.Meter.Bytes() != 0 {
		t.Error("aborted transfer still charged the link")
	}
}

func TestSlowStageDelaysButCompletes(t *testing.T) {
	assertNoFlowLeaks(t)
	fires := 0
	slow := &SlowStage{
		Inner: &sumStage{},
		Delay: time.Millisecond,
		Fire:  func() bool { fires++; return fires == 1 },
	}
	p := &Pipeline{
		Name:   "slow-ok",
		Source: nBatchSource(3, 2),
		Stages: []Placed{{Stage: slow}},
	}
	var got int64
	_, err := p.Run(context.Background(), func(b *columnar.Batch) error {
		got = b.Col(0).Int64s()[0]
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != 15 { // sum 0..5
		t.Errorf("sum = %d, want 15", got)
	}
}
