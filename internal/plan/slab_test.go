package plan

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/fabric"
	"repro/internal/sim"
)

// variantView is what a caller reads of one variant.
type variantView struct {
	name       string
	placements []Placement
	devices    []*fabric.Device
	links      []*fabric.Link
	bytes      sim.Bytes
	time       sim.VTime
	rank       float64
}

func viewOf(v *Physical) variantView {
	return variantView{v.Variant, slices.Clone(v.Placements), slices.Clone(v.Devices()), slices.Clone(v.Links()),
		v.EstBytes, v.EstTime, v.rank}
}

func (a variantView) equal(b variantView) bool {
	return a.name == b.name && slices.Equal(a.placements, b.placements) && slices.Equal(a.devices, b.devices) &&
		slices.Equal(a.links, b.links) && a.bytes == b.bytes && a.time == b.time && a.rank == b.rank
}

// The variants of one enumeration may share backing arrays, but a caller
// that appends to one variant's Placements, Devices or Links and writes
// into what it appended changes no other variant: each window ends at its
// own length. Every variant reads what a hand-built Physical with its path
// and placements derives. Checked for every BenchmarkEnumerate shape with
// the whole fabric up and with each accelerator offline in turn.
func TestPlanVariantsDoNotShareBackingArrays(t *testing.T) {
	st, cfg := lineitemStats()
	pm := smartPath(t)
	offline := []string{""}
	for _, s := range pm.Sites[:len(pm.Sites)-1] {
		offline = append(offline, s.Device.Name)
	}
	for _, shape := range enumerateShapes(cfg) {
		for _, down := range offline {
			t.Run(fmt.Sprintf("%s/offline=%q", shape.name, down), func(t *testing.T) {
				c := fabric.NewCluster(fabric.DefaultClusterConfig())
				if down != "" {
					c.MustDevice(down).SetOffline(true)
				}
				pm, err := FromCluster(c, 0)
				if err != nil {
					t.Fatal(err)
				}
				vs, err := (&Optimizer{Path: pm}).Enumerate(shape.q, st)
				if err != nil {
					t.Fatal(err)
				}
				if len(vs) < 2 {
					t.Fatalf("%d variants; the test shows nothing", len(vs))
				}
				want := make([]variantView, len(vs))
				for i, v := range vs {
					want[i] = viewOf(v)
					hand := &Physical{Path: v.Path, Placements: v.Placements}
					if !slices.Equal(want[i].devices, hand.Devices()) || !slices.Equal(want[i].links, hand.Links()) {
						t.Errorf("%s: built occupancy %v %v, derived %v %v",
							v.Variant, want[i].devices, want[i].links, hand.Devices(), hand.Links())
					}
				}
				cpuIdx := len(pm.Sites) - 1
				for i, v := range vs {
					placed := v.Placements
					v.Placements = append(v.Placements, Placement{Op: fabric.OpSort, SiteIdx: 0})
					v.Placements[len(v.Placements)-1] = Placement{Op: fabric.OpPreAgg, SiteIdx: cpuIdx}
					devs := append(v.Devices(), pm.Sites[0].Device)
					devs[len(devs)-1] = pm.Sites[cpuIdx].Device
					links := append(v.Links(), nil)
					links[len(links)-1] = &fabric.Link{Name: "stray"}
					for j, o := range vs {
						if j == i {
							continue
						}
						if got := viewOf(o); !got.equal(want[j]) {
							t.Errorf("appending to %s changed %s: %+v, was %+v", v.Variant, o.Variant, got, want[j])
						}
						hand := &Physical{Path: o.Path, Placements: o.Placements}
						if !slices.Equal(o.Devices(), hand.Devices()) || !slices.Equal(o.Links(), hand.Links()) {
							t.Errorf("after appending to %s, %s reads %v %v, derived %v %v",
								v.Variant, o.Variant, o.Devices(), o.Links(), hand.Devices(), hand.Links())
						}
					}
					v.Placements = placed
				}
			})
		}
	}
}
