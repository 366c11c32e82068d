package flow

import "fmt"

// StageError names the pipeline element whose runtime-detected fault
// (an offline device) failed the run. The engine uses Device to
// re-enumerate placements without the failed device; errors returned by
// stage logic itself propagate unwrapped.
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
