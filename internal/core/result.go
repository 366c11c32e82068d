// Package core is the engine facade: it wires the substrates (fabric,
// storage, flow, exec, plan, sched) into two complete query engines —
// the DataFlowEngine the paper calls for, which lays each query out as a
// streaming pipeline over the data path, and the VolcanoEngine baseline,
// a CPU-centric pull engine with a buffer pool. Both run the same
// queries on the same stored data and return the same answers; their
// execution stats differ in exactly the dimensions the paper predicts.
package core

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/columnar"
	"repro/internal/flow"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/storage"
)

// Result is a completed query execution.
type Result struct {
	Batches []*columnar.Batch
	Stats   ExecStats
	// Trace is the virtual-time span timeline of the execution, present
	// only when the engine ran with tracing enabled. Nil otherwise; all
	// obs.Trace methods are nil-safe, so callers need not check.
	Trace *obs.Trace
}

// Rows reports the total result rows.
func (r *Result) Rows() int64 {
	var n int64
	for _, b := range r.Batches {
		n += int64(b.NumRows())
	}
	return n
}

// Schema returns the result schema (nil for an empty result set).
func (r *Result) Schema() *columnar.Schema {
	if len(r.Batches) == 0 {
		return nil
	}
	return r.Batches[0].Schema()
}

// Format renders the result as an aligned text table capped at maxRows.
func (r *Result) Format(maxRows int) string {
	if len(r.Batches) == 0 {
		return "(empty)\n"
	}
	var b strings.Builder
	schema := r.Schema()
	var names []string
	for _, f := range schema.Fields {
		names = append(names, f.Name)
	}
	b.WriteString(strings.Join(names, "\t"))
	b.WriteByte('\n')
	printed := 0
	for _, batch := range r.Batches {
		for i := 0; i < batch.NumRows() && printed < maxRows; i++ {
			var cells []string
			for _, v := range batch.Row(i) {
				cells = append(cells, v.String())
			}
			b.WriteString(strings.Join(cells, "\t"))
			b.WriteByte('\n')
			printed++
		}
	}
	if total := r.Rows(); total > int64(printed) {
		fmt.Fprintf(&b, "... (%d more rows)\n", total-int64(printed))
	}
	return b.String()
}

// ExecStats is the per-query cost decomposition the experiments report.
type ExecStats struct {
	Engine  string // "dataflow" or "volcano"
	Variant string // chosen plan variant (dataflow)

	// MovedBytes is the total payload crossing all fabric links — the
	// paper's first-class cost.
	MovedBytes sim.Bytes
	// LinkBytes decomposes MovedBytes by link name.
	LinkBytes map[string]sim.Bytes
	// DeviceBusy decomposes virtual busy time by device name.
	DeviceBusy map[string]sim.VTime
	// LinkBusy is the virtual busy time of each link in LinkBytes.
	LinkBusy map[string]sim.VTime
	// CPUBytes is the payload the compute node's cores had to touch.
	CPUBytes sim.Bytes
	// CPUBusy is the compute cores' virtual busy time.
	CPUBusy sim.VTime
	// SimTime estimates the pipeline makespan: the bottleneck resource's
	// busy time plus one latency per traversed hop.
	SimTime sim.VTime
	// Scan reports what the storage layer did.
	Scan storage.ScanStats
	// Ports carries flow-control counters (dataflow only).
	Ports []flow.PortStats
	// PeakMemory is the compute-node memory the engine needed (buffer
	// pool residency for Volcano, retained stage state for dataflow).
	PeakMemory sim.Bytes
	// ResultRows is the number of rows returned.
	ResultRows int64

	// Recovery accounting — what the engine itself counts. What the
	// query's reads cost at the object store (retries, fallbacks,
	// hedges, corrupt reads, read-repairs, budget denials) is its
	// account there, Scan.ReadStats; speculation is counted by the scan.
	// Availability is not free: every retry, failover and restart burns
	// real media, link and device work that E19 and E21 report.

	// QueryRetries counts recoveries from transient pipeline faults,
	// whatever epoch they resumed from.
	QueryRetries int64
	// Failovers counts device failures resumed at epoch 0, on a plan
	// re-enumerated without the device.
	Failovers int
	// DegradedPlacement reports that the answer was produced on a
	// fallback placement that avoids at least one failed device (the
	// CPU-only plan in the worst case).
	DegradedPlacement bool
	// RecoveryBytes is the link payload failed pipeline runs moved past
	// the point the next run resumed from (storage re-reads are
	// Scan.RetryBytes). MovedBytes excludes it: the two sum to what the
	// query's runs put on the links.
	RecoveryBytes sim.Bytes
	// RecoveryTime is the virtual busy time failed runs burned past their
	// resume point.
	RecoveryTime sim.VTime
	// PartialRestarts counts device failures resumed past epoch 0: on a
	// re-enumerated plan, from the failed run's latest completed
	// checkpoint, replaying only the suffix since it.
	PartialRestarts int
	// Checkpoints counts completed checkpoint epochs (markers that fell
	// off the last stage with every prior batch durable at the sink) of
	// the runs since the last resume at epoch 0.
	Checkpoints int
	// ReplayedBytes is the part of RecoveryBytes resumes past epoch 0
	// wasted: what a failed run charged after the mark of the epoch the
	// next run resumed from.
	ReplayedBytes sim.Bytes
	// BreakerTrips counts the circuit breakers this query's failures
	// opened: the replica breakers its corrupt and lost reads tripped
	// (Scan.BreakerTrips, its share at the object store) plus the device
	// breakers its failed pipeline attempts tripped. A breaker integrates
	// failures across queries; the trip is counted for the query whose
	// failure crossed the threshold.
	BreakerTrips int64
}

// String summarizes the stats on a few lines.
func (s ExecStats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s", s.Engine)
	if s.Variant != "" {
		fmt.Fprintf(&b, "/%s", s.Variant)
	}
	fmt.Fprintf(&b, ": rows=%d moved=%s cpu=%s simtime=%s peakmem=%s\n",
		s.ResultRows, s.MovedBytes, s.CPUBytes, s.SimTime, s.PeakMemory)
	if s.QueryRetries > 0 || s.Failovers > 0 || s.PartialRestarts > 0 || s.BreakerTrips > 0 {
		fmt.Fprintf(&b, "  recovery: query-retries=%d failovers=%d restarts=%d degraded=%v waste=%s/%s replayed=%s trips=%d\n",
			s.QueryRetries, s.Failovers, s.PartialRestarts, s.DegradedPlacement,
			s.RecoveryBytes, s.RecoveryTime, s.ReplayedBytes, s.BreakerTrips)
	}
	if s.Scan.SpeculativeMorsels > 0 {
		fmt.Fprintf(&b, "  speculation: %d/%d wins (%s)\n",
			s.Scan.SpeculativeWins, s.Scan.SpeculativeMorsels, s.Scan.SpeculativeBytes)
	}
	if s.Scan.ReadStats != (storage.ReadStats{}) {
		b.WriteString("  store reads:")
		s.Scan.ReadStats.Each(func(name string, v int64) {
			if v != 0 {
				fmt.Fprintf(&b, " %s=%d", name, v)
			}
		})
		b.WriteByte('\n')
	}
	names := make([]string, 0, len(s.LinkBytes))
	for n := range s.LinkBytes {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&b, "  link %-32s %s\n", n, s.LinkBytes[n])
	}
	return b.String()
}

// ControlOverhead reports credit messages per data message across all
// ports, the Section 7.1 "low traffic" check. Returns 0 with no ports.
func (s ExecStats) ControlOverhead() float64 {
	var data, credit int64
	for _, p := range s.Ports {
		data += p.DataMessages
		credit += p.CreditMessages
	}
	if data == 0 {
		return 0
	}
	return float64(credit) / float64(data)
}
