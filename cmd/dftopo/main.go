// Command dftopo prints the preset fabric topologies, their device
// capability tables and calibrated rates — the hardware model every
// experiment runs on.
//
// Usage:
//
//	dftopo [-topology smart|legacy|conventional] [-nodes N] [-nic 100|200|400|800|1600]
//	       [-metrics]
//
// -metrics appends the fleet telemetry inventory for the topology: every
// static metric series the instrumented layers publish, plus the
// per-device and per-link labelled series instantiated from the actual
// devices and links of the printed cluster.
package main

import (
	"flag"
	"fmt"
	"log"

	"repro/internal/fabric"
	"repro/internal/plan"
	"repro/internal/storage"
)

func nicTier(gbps int) (fabric.LinkKind, error) {
	switch gbps {
	case 100:
		return fabric.LinkEth100, nil
	case 200:
		return fabric.LinkEth200, nil
	case 400:
		return fabric.LinkEth400, nil
	case 800:
		return fabric.LinkEth800, nil
	case 1600:
		return fabric.LinkEth1600, nil
	}
	return 0, fmt.Errorf("unknown NIC tier %d (want 100|200|400|800|1600)", gbps)
}

// staticSeries lists the unlabelled metric series the instrumented
// layers publish, grouped for the inventory printout.
var staticSeries = []struct{ layer, series string }{
	{"sched", "sched.admit.requests sched.admitted sched.queued sched.queue.depth sched.active"},
	{"sched", "sched.shed sched.shed.queue_full sched.shed.slo_burn sched.shed.deadline sched.queue.cancelled sched.ewma.service.ns"},
	{"storage", "scan.count scan.segments scan.segments.pruned scan.media.bytes scan.shipped.bytes scan.shipped.rows scan.shipped.bytes.rate"},
	{"storage", "scan.decoded.bytes scan.decoded.bytes.saved scan.encoded.segments scan.speculative.morsels scan.speculative.wins scan.speculative.bytes"},
	{"flow", "flow.credit.stalls flow.workers.busy flow.workers.provisioned"},
	{"engine", "fleet.queries fleet.busy.vns fleet.bytes fleet.rows fleet.queries.rate fleet.bytes.rate"},
	{"engine", "query.wall.ns query.simtime.vns query.concurrency.factor query.decoded.bytes.saved"},
	{"engine", "tenant.queries{tenant=} tenant.busy.vns{tenant=} tenant.bytes{tenant=} engine.queries{engine=}"},
	{"resilience", "resilience.budget.tokens resilience.budget.exhausted resilience.breaker.trips resilience.breaker.state{device=}"},
}

// printMetricsInventory renders the telemetry series for this cluster:
// the static series above, then the fabric series labelled with the
// cluster's actual device and link names.
func printMetricsInventory(c *fabric.Cluster) {
	fmt.Println("\nfleet telemetry inventory:")
	for _, s := range staticSeries {
		fmt.Printf("  %-10s %s\n", s.layer, s.series)
	}
	fmt.Print("  storage, per scan as scan.<name> and per store read as storage.<name>, non-zero only:\n   ")
	new(storage.ReadStats).Each(func(name string, _ int64) { fmt.Print(" ", name) })
	fmt.Println()
	fmt.Println("  fabric, per device (utilization + cumulative busy):")
	for _, d := range c.Devices() {
		fmt.Printf("    fabric.device.utilization{device=%q} fabric.device.busy.vns{device=%q}\n",
			d.Name, d.Name)
	}
	fmt.Println("  fabric, per link (bytes + busy + utilization):")
	for _, l := range c.Links() {
		fmt.Printf("    fabric.link.bytes{link=%q} fabric.link.busy.vns{link=%q} fabric.link.util{link=%q}\n",
			l.Name, l.Name, l.Name)
	}
}

func main() {
	kind := flag.String("topology", "smart", "smart, legacy or conventional")
	nodes := flag.Int("nodes", 2, "compute nodes (cluster topologies)")
	nic := flag.Int("nic", 400, "NIC tier in Gb/s")
	showMetrics := flag.Bool("metrics", false, "print the fleet telemetry series inventory for this topology")
	flag.Parse()

	switch *kind {
	case "conventional":
		fmt.Print(fabric.NewConventionalServer().String())
		return
	case "smart", "legacy":
	default:
		log.Fatalf("unknown topology %q", *kind)
	}

	cfg := fabric.DefaultClusterConfig()
	if *kind == "legacy" {
		cfg = fabric.LegacyClusterConfig()
	}
	cfg.ComputeNodes = *nodes
	tier, err := nicTier(*nic)
	if err != nil {
		log.Fatal(err)
	}
	cfg.NICTier = tier
	c := fabric.NewCluster(cfg)
	fmt.Print(c.String())

	fmt.Println("\ndevice capabilities (streaming rate per op):")
	for _, d := range c.Devices() {
		ops := d.CapabilityList()
		if len(ops) == 0 {
			fmt.Printf("  %-16s (passive)\n", d.Name)
			continue
		}
		fmt.Printf("  %-16s", d.Name)
		for _, op := range ops {
			fmt.Printf(" %s=%s", op, d.RateFor(op))
		}
		fmt.Println()
	}

	pm, err := plan.FromCluster(c, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nplanner data path (node 0): %s\n", pm)
	for i := 0; i < len(pm.Sites)-1; i++ {
		fmt.Printf("  segment %d: bandwidth %s, latency %s\n",
			i, pm.SegmentBandwidth(i), pm.SegmentLatency(i))
	}
	if *showMetrics {
		printMetricsInventory(c)
	}
}
