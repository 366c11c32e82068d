package fabric

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"repro/internal/sim"
)

// bfs is the breadth-first search Path ran on every call before it kept
// a route table: the reference its routes must match.
func bfs(t *Topology, a, b string) []*Link {
	if a == b {
		return nil
	}
	prev := map[string]*Link{a: nil}
	for frontier := []string{a}; len(frontier) > 0; {
		var next []string
		for _, cur := range frontier {
			for _, l := range t.adj[cur] {
				n := l.Other(cur)
				if _, seen := prev[n]; seen {
					continue
				}
				prev[n] = l
				if n == b {
					var path []*Link
					for at := b; at != a; at = prev[at].Other(at) {
						path = append([]*Link{prev[at]}, path...)
					}
					return path
				}
				next = append(next, n)
			}
		}
		frontier = next
	}
	return nil
}

// chain returns a topology d0 -- d1 -- ... -- d(n-1).
func chain(n int) *Topology {
	top := NewTopology("chain")
	for i := 0; i < n; i++ {
		top.AddDevice(NewMemory(fmt.Sprintf("d%d", i)))
		if i > 0 {
			top.Connect(fmt.Sprintf("d%d", i-1), fmt.Sprintf("d%d", i), LinkDDR, sim.GBPerSec, sim.Microsecond)
		}
	}
	return top
}

func hops(t *testing.T, top *Topology, a, b string) int {
	t.Helper()
	p, err := top.Path(a, b)
	if err != nil {
		t.Fatal(err)
	}
	return len(p)
}

// A route asked for once is not kept past a change to the graph.
func TestPathSeesLaterChanges(t *testing.T) {
	top := chain(4)
	if got := hops(t, top, "d0", "d3"); got != 3 {
		t.Fatalf("d0->d3 = %d hops, want 3", got)
	}
	top.Connect("d0", "d3", LinkPCIe4, sim.GBPerSec, sim.Microsecond)
	if got := hops(t, top, "d0", "d3"); got != 1 {
		t.Errorf("after a direct link d0->d3 = %d hops, want 1", got)
	}

	if _, err := top.Path("d0", "d4"); err == nil {
		t.Fatal("Path to a device not yet added succeeded")
	}
	top.AddDevice(NewMemory("d4"))
	if _, err := top.Path("d0", "d4"); err == nil {
		t.Fatal("Path to an unconnected device succeeded")
	}
	top.Connect("d3", "d4", LinkDDR, sim.GBPerSec, sim.Microsecond)
	if got := hops(t, top, "d0", "d4"); got != 2 {
		t.Errorf("d0->d4 = %d hops, want 2", got)
	}
}

// A returned route is shared: appending to it copies, so neither the
// next caller nor an earlier caller's append sees the write.
func TestAppendingToAPathCopiesIt(t *testing.T) {
	top := chain(4)
	first, err := top.Path("d0", "d3")
	if err != nil {
		t.Fatal(err)
	}
	want := slices.Clone(first)
	x, y := top.Link("d0--d1"), top.Link("d1--d2")
	mine := append(first, x)
	again, err := top.Path("d0", "d3")
	if err != nil {
		t.Fatal(err)
	}
	theirs := append(again, y)
	if !slices.Equal(again, want) {
		t.Errorf("Path after an append = %v, want %v", again, want)
	}
	if mine[len(want)] != x || theirs[len(want)] != y {
		t.Error("two appends to the same route wrote the same array")
	}
}

// Many goroutines asking for routes at once all get the search's answer.
func TestPathConcurrentCallers(t *testing.T) {
	c := NewCluster(DefaultClusterConfig())
	devs := c.Devices()
	want := map[[2]string][]*Link{}
	for _, a := range devs {
		for _, b := range devs {
			want[[2]string{a.Name, b.Name}] = bfs(c.Topology, a.Name, b.Name)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				a, b := devs[(g+i)%len(devs)].Name, devs[(g*7+i*3)%len(devs)].Name
				p, err := c.Path(a, b)
				if err != nil || !slices.Equal(p, want[[2]string{a, b}]) {
					t.Errorf("Path(%s, %s) = %v, %v; want %v", a, b, p, err, want[[2]string{a, b}])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// On the preset clusters the table answers what the breadth-first search
// does, on the first ask and on every later one.
func TestPathMatchesSearchOnPresets(t *testing.T) {
	for _, cfg := range []ClusterConfig{DefaultClusterConfig(), LegacyClusterConfig()} {
		c := NewCluster(cfg)
		for _, a := range c.Devices() {
			for _, b := range c.Devices() {
				want := bfs(c.Topology, a.Name, b.Name)
				for ask := 0; ask < 2; ask++ {
					got, err := c.Path(a.Name, b.Name)
					if err != nil || !slices.Equal(got, want) {
						t.Errorf("%s: ask %d of Path(%s, %s) = %v, %v; want %v", c.Name, ask, a.Name, b.Name, got, err, want)
					}
				}
			}
		}
	}
}
