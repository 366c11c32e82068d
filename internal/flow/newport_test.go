package flow

import (
	"repro/internal/fabric"
	"repro/internal/obs"
)

// newPort builds a port of the given depth (see Port.init) on its own,
// outside a pipeline's slab of ports.
func newPort(name string, path []*fabric.Link, depth int, done <-chan struct{}, tape *obs.StageTape) *Port {
	p := new(Port)
	p.init(name, path, depth, done, tape)
	return p
}
