// Distributedjoin reproduces Figure 4 interactively: a partitioned hash
// join across compute nodes where the scattering pipeline runs either on
// the smart NIC (no CPU involvement) or on the CPUs, for a node-count
// sweep.
//
//	go run ./examples/distributedjoin
package main

import (
	"fmt"
	"log"

	"repro/internal/columnar"
	"repro/internal/fabric"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/workload"
)

func main() {
	build := []*columnar.Batch{workload.GenKV(workload.KVConfig{Rows: 20000, Keys: 20000, Seed: 1})}
	probe := []*columnar.Batch{workload.GenKV(workload.KVConfig{Rows: 200000, Keys: 40000, Seed: 2})}

	fmt.Println("Figure 4: scattering pipeline for a distributed, partitioned hash join")
	fmt.Printf("%-6s %-8s %-12s %-14s %-14s %-16s\n",
		"nodes", "scatter", "joined rows", "cpu bytes", "scatter bytes", "probe skew")

	for _, nodes := range []int{2, 4, 8} {
		for _, onNIC := range []bool{true, false} {
			cfg := netsim.DistJoinConfig{BuildKey: 0, ProbeKey: 0, BatchRows: 1024}
			if onNIC {
				cfg.ScatterDevice = fabric.NewSmartNIC("scatter-nic", sim.GbitPerSec(400))
			} else {
				cfg.ScatterDevice = fabric.NewCPU("scatter-cpu", 8)
			}
			for i := 0; i < nodes; i++ {
				cfg.Nodes = append(cfg.Nodes, fabric.NewCPU(fmt.Sprintf("cpu%d", i), 8))
				cfg.Paths = append(cfg.Paths, []*fabric.Link{{
					Name: fmt.Sprintf("eth%d", i), A: "switch", B: fmt.Sprintf("node%d", i),
					Bandwidth: sim.GbitPerSec(400), Latency: fabric.RDMALatency,
				}})
			}
			res, err := netsim.DistributedJoin(cfg, build, probe, nil)
			if err != nil {
				log.Fatal(err)
			}
			cpuBytes := res.CPUBytes
			mode := "nic"
			if !onNIC {
				cpuBytes += res.ScatterBytes
				mode = "cpu"
			}
			fmt.Printf("%-6d %-8s %-12d %-14s %-14s %d/%d\n",
				nodes, mode, res.Rows, cpuBytes, res.ScatterBytes, res.SkewMax, res.SkewMin)
		}
	}
	fmt.Println("\nnic mode: the exchange never touches a CPU; the NICs partition at line rate")
}
