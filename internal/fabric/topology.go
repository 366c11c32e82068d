package fabric

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/sim"
)

// Topology is a named graph of devices connected by links. It provides
// path routing (for charging multi-hop transfers) and aggregate meter
// access for experiments.
type Topology struct {
	Name    string
	devices map[string]*Device
	links   map[string]*Link
	adj     map[string][]*Link // device name -> incident links
	// deviceList and linkList hold the same devices and links in the
	// order they were added; an Account indexes its entries by it.
	deviceList []*Device
	linkList   []*Link
	// routes caches Path by device pair. AddDevice and Connect clear it;
	// like the graph itself, they must not run beside Path.
	routeMu sync.RWMutex
	routes  map[[2]string][]*Link
}

// NewTopology returns an empty topology.
func NewTopology(name string) *Topology {
	return &Topology{
		Name:    name,
		devices: make(map[string]*Device),
		links:   make(map[string]*Link),
		adj:     make(map[string][]*Link),
		routes:  make(map[[2]string][]*Link),
	}
}

// AddDevice registers a device. Duplicate names are a construction bug
// and panic.
func (t *Topology) AddDevice(d *Device) *Device {
	if _, dup := t.devices[d.Name]; dup {
		panic(fmt.Sprintf("fabric: duplicate device %q", d.Name))
	}
	t.devices[d.Name] = d
	d.index = len(t.deviceList)
	t.deviceList = append(t.deviceList, d)
	clear(t.routes)
	return d
}

// Connect adds a link between two existing devices. The link name is
// "a--b" unless endpoints collide, in which case kind is appended.
func (t *Topology) Connect(a, b string, kind LinkKind, bw sim.Rate, lat sim.VTime) *Link {
	if _, ok := t.devices[a]; !ok {
		panic(fmt.Sprintf("fabric: Connect references unknown device %q", a))
	}
	if _, ok := t.devices[b]; !ok {
		panic(fmt.Sprintf("fabric: Connect references unknown device %q", b))
	}
	name := a + "--" + b
	if _, dup := t.links[name]; dup {
		name = fmt.Sprintf("%s--%s(%s)", a, b, kind)
	}
	l := &Link{Name: name, Kind: kind, A: a, B: b, Bandwidth: bw, Latency: lat, index: len(t.linkList)}
	t.links[name] = l
	t.linkList = append(t.linkList, l)
	t.adj[a] = append(t.adj[a], l)
	t.adj[b] = append(t.adj[b], l)
	clear(t.routes)
	return l
}

// Device returns the named device, or nil.
func (t *Topology) Device(name string) *Device { return t.devices[name] }

// MustDevice returns the named device or panics; used where absence is a
// construction bug.
func (t *Topology) MustDevice(name string) *Device {
	d := t.devices[name]
	if d == nil {
		panic(fmt.Sprintf("fabric: unknown device %q", name))
	}
	return d
}

// Link returns the named link, or nil.
func (t *Topology) Link(name string) *Link { return t.links[name] }

// LinkBetween returns the first link directly connecting a and b, or nil.
func (t *Topology) LinkBetween(a, b string) *Link {
	for _, l := range t.adj[a] {
		if l.Other(a) == b {
			return l
		}
	}
	return nil
}

// Devices returns all devices sorted by name.
func (t *Topology) Devices() []*Device {
	out := make([]*Device, 0, len(t.devices))
	for _, d := range t.devices {
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Links returns all links sorted by name.
func (t *Topology) Links() []*Link {
	out := make([]*Link, 0, len(t.links))
	for _, l := range t.links {
		out = append(out, l)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Path returns the links of a shortest (hop-count) path from device a to
// device b, or an error if no path exists. Ties are broken
// deterministically by visiting neighbours in insertion order. A route
// found once is answered from a table: the slice is shared (append copies).
func (t *Topology) Path(a, b string) ([]*Link, error) {
	t.routeMu.RLock()
	path, ok := t.routes[[2]string{a, b}]
	t.routeMu.RUnlock()
	if ok {
		return path, nil
	}
	if _, ok := t.devices[a]; !ok {
		return nil, fmt.Errorf("fabric: unknown device %q", a)
	}
	if _, ok := t.devices[b]; !ok {
		return nil, fmt.Errorf("fabric: unknown device %q", b)
	}
	if a == b {
		return nil, nil
	}
	type hop struct {
		via  *Link
		prev string
	}
	visited := map[string]hop{a: {}}
	frontier := []string{a}
	for len(frontier) > 0 {
		var next []string
		for _, cur := range frontier {
			for _, l := range t.adj[cur] {
				n := l.Other(cur)
				if _, seen := visited[n]; seen {
					continue
				}
				visited[n] = hop{via: l, prev: cur}
				if n == b {
					// Reconstruct.
					var path []*Link
					for at := b; at != a; {
						h := visited[at]
						path = append(path, h.via)
						at = h.prev
					}
					// Reverse into a->b order.
					for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
						path[i], path[j] = path[j], path[i]
					}
					path = path[:len(path):len(path)]
					t.routeMu.Lock()
					t.routes[[2]string{a, b}] = path
					t.routeMu.Unlock()
					return path, nil
				}
				next = append(next, n)
			}
		}
		frontier = next
	}
	return nil, fmt.Errorf("fabric: no path from %q to %q", a, b)
}

// Transfer charges moving n bytes along the shortest path from a to b and
// returns the total virtual time (sum of per-link latency plus
// store-and-forward transfer time on each hop). A cancelled or expired
// ctx aborts before any link is charged.
func (t *Topology) Transfer(ctx context.Context, a, b string, n sim.Bytes) (sim.VTime, error) {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
	}
	path, err := t.Path(a, b)
	if err != nil {
		return 0, err
	}
	var total sim.VTime
	for _, l := range path {
		total += l.Transfer(n)
	}
	return total, nil
}

// ResetMeters zeroes every device and link meter, isolating experiments.
func (t *Topology) ResetMeters() {
	for _, d := range t.devices {
		d.Meter.Reset()
	}
	for _, l := range t.links {
		l.Meter.Reset()
	}
}

// LinkBytes reports payload bytes moved per link, keyed by link name,
// omitting idle links.
func (t *Topology) LinkBytes() map[string]sim.Bytes {
	out := make(map[string]sim.Bytes)
	for name, l := range t.links {
		if b := l.Meter.Bytes(); b > 0 {
			out[name] = b
		}
	}
	return out
}

// String renders a summary listing of devices and links.
func (t *Topology) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "topology %s\n", t.Name)
	for _, d := range t.Devices() {
		fmt.Fprintf(&b, "  device %s\n", d)
	}
	for _, l := range t.Links() {
		fmt.Fprintf(&b, "  link   %s\n", l)
	}
	return b.String()
}
