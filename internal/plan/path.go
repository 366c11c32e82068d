package plan

import (
	"fmt"
	"strings"

	"repro/internal/fabric"
	"repro/internal/sim"
)

// Site names a position along the Figure 6 data path where a stage can
// execute.
type Site uint8

// Sites in data-path order.
const (
	SiteStorage    Site = iota // in-storage processor
	SiteStorageNIC             // sending NIC
	SiteComputeNIC             // receiving NIC
	SiteNearMemory             // near-memory accelerator
	SiteCPU                    // compute node cores
	numSites
)

// String names the site.
func (s Site) String() string {
	names := [...]string{"storage", "storage-nic", "compute-nic", "near-memory", "cpu"}
	if int(s) < len(names) {
		return names[s]
	}
	return fmt.Sprintf("Site(%d)", uint8(s))
}

// SiteInfo binds a site to its device and the fabric links toward the
// next site.
type SiteInfo struct {
	Site   Site
	Device *fabric.Device
	// ToNext lists the links data crosses to reach the next site's
	// device (empty at the last site).
	ToNext []*fabric.Link
}

// PathModel is the ordered data path of one compute node within a
// cluster, the planner's view of the fabric.
type PathModel struct {
	Sites []SiteInfo
}

// FromCluster extracts the data path toward compute node `node`.
// Clusters without a near-memory accelerator yield a four-site path.
func FromCluster(c *fabric.Cluster, node int) (PathModel, error) {
	var pm PathModel
	cpuName := fabric.ComputeDev(node, "cpu")
	nicName := fabric.ComputeDev(node, "nic")
	if c.Device(cpuName) == nil {
		return pm, fmt.Errorf("plan: cluster has no compute node %d", node)
	}
	names := []struct {
		site Site
		dev  string
	}{
		{SiteStorage, fabric.DevStorageProc},
		{SiteStorageNIC, fabric.DevStorageNIC},
		{SiteComputeNIC, nicName},
	}
	if c.NearMem(node) != nil {
		names = append(names, struct {
			site Site
			dev  string
		}{SiteNearMemory, fabric.ComputeDev(node, "nma")})
	}
	names = append(names, struct {
		site Site
		dev  string
	}{SiteCPU, cpuName})

	for i, n := range names {
		info := SiteInfo{Site: n.site, Device: c.MustDevice(n.dev)}
		if i+1 < len(names) {
			links, err := c.Path(n.dev, names[i+1].dev)
			if err != nil {
				return pm, err
			}
			info.ToNext = links
		}
		pm.Sites = append(pm.Sites, info)
	}
	return pm, nil
}

// SiteIndex returns the index of the given site in the path, or -1.
func (pm PathModel) SiteIndex(s Site) int {
	for i, info := range pm.Sites {
		if info.Site == s {
			return i
		}
	}
	return -1
}

// CPU returns the terminal CPU device.
func (pm PathModel) CPU() *fabric.Device {
	return pm.Sites[len(pm.Sites)-1].Device
}

// SegmentBandwidth reports the bottleneck bandwidth between site i and
// i+1.
func (pm PathModel) SegmentBandwidth(i int) sim.Rate {
	links := pm.Sites[i].ToNext
	if len(links) == 0 {
		return 0 // on-device
	}
	min := links[0].EffectiveBandwidth()
	for _, l := range links[1:] {
		if bw := l.EffectiveBandwidth(); bw < min {
			min = bw
		}
	}
	return min
}

// SegmentLatency reports the summed latency between site i and i+1.
func (pm PathModel) SegmentLatency(i int) sim.VTime {
	var total sim.VTime
	for _, l := range pm.Sites[i].ToNext {
		total += l.Latency
	}
	return total
}

// String renders the path.
func (pm PathModel) String() string {
	var parts []string
	for _, s := range pm.Sites {
		parts = append(parts, fmt.Sprintf("%s[%s]", s.Site, s.Device.Name))
	}
	return strings.Join(parts, " -> ")
}
