package flow

import (
	"errors"
	"fmt"

	"repro/internal/sim"
)

// ErrStageTimeout marks a stage the watchdog declared hung: it held a
// batch longer than the pipeline's StageTimeout without completing.
var ErrStageTimeout = errors.New("flow: stage timed out")

// StageError names the pipeline element whose runtime-detected fault
// (offline device, watchdog timeout) failed the run. The engine uses
// Device to re-enumerate placements without the failed device; errors
// returned by stage logic itself propagate unwrapped.
type StageError struct {
	Pipeline string
	Stage    string
	Device   string
	Err      error
}

// Error renders the failure with its location.
func (e *StageError) Error() string {
	return fmt.Sprintf("flow: pipeline %s stage %s on %s: %v", e.Pipeline, e.Stage, e.Device, e.Err)
}

// Unwrap exposes the underlying cause for errors.Is/As.
func (e *StageError) Unwrap() error { return e.Err }

// LinkError marks a data transfer aborted by a fault on a fabric link.
type LinkError struct {
	Link string
	Err  error
}

// Error renders the failure with the link name.
func (e *LinkError) Error() string {
	return fmt.Sprintf("flow: link %s: %v", e.Link, e.Err)
}

// Unwrap exposes the underlying cause for errors.Is/As.
func (e *LinkError) Unwrap() error { return e.Err }

// CancelAware lets a stage observe the pipeline's cancellation channel
// and clock, so long-blocking stages (sleeps, external waits) wait on
// the run's clock and abort promptly when the run is torn down instead
// of leaking their goroutine.
type CancelAware interface {
	SetCancel(done <-chan struct{}, clk *sim.Clock)
}
