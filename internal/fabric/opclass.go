// Package fabric models the heterogeneous, disaggregated hardware
// landscape of the paper (Section 2): compute nodes, storage nodes,
// memory nodes, smart NICs, in-storage processors, near-memory
// accelerators and the links between them (DDR, PCIe generations, CXL,
// Ethernet tiers).
//
// The model is cost accounting, not cycle simulation: every device has a
// calibrated streaming rate per operation class and every link has a
// bandwidth and latency. When the engine runs real operators on real
// data, it charges the bytes to the devices and links involved, and
// virtual time falls out analytically. This keeps experiments
// deterministic and host-independent while preserving the quantities the
// paper reasons about — bytes moved along the data path and where work
// happens.
package fabric

import "fmt"

// OpClass classifies the streaming operations a device may support.
// Offloading decisions are made in terms of op classes: a device can host
// a pipeline stage only if it supports the stage's op class.
type OpClass uint8

// Operation classes. The set mirrors the processing opportunities the
// paper identifies along the data path.
const (
	OpScan         OpClass = iota // sequential read + decode of stored segments
	OpFilter                      // selection by value/range/predicate
	OpProject                     // column pruning
	OpHash                        // hashing a stream (Figure 3)
	OpPartition                   // hash-partitioning / scatter (Figure 4)
	OpPreAgg                      // partial, bounded-state aggregation (Section 4.4)
	OpAggregate                   // full aggregation with arbitrary state
	OpJoin                        // join build/probe
	OpSort                        // sorting
	OpCount                       // counting/discarding (Section 4.4 NIC COUNT)
	OpCompress                    // block compression
	OpDecompress                  // block decompression
	OpEncrypt                     // stream encryption
	OpDecrypt                     // stream decryption
	OpTranspose                   // row<->column format conversion (Section 5.4)
	OpPointerChase                // hierarchical structure traversal (Section 5.4)
	OpListOps                     // list/GC maintenance primitives (Section 5.4)
	OpRegexMatch                  // LIKE/regex predicates (Section 3.3, AQUA)
	numOpClasses
)

// String names the op class.
func (o OpClass) String() string {
	names := [...]string{
		"scan", "filter", "project", "hash", "partition", "preagg",
		"aggregate", "join", "sort", "count", "compress", "decompress",
		"encrypt", "decrypt", "transpose", "pointerchase", "listops",
		"regex",
	}
	if int(o) < len(names) {
		return names[o]
	}
	return fmt.Sprintf("OpClass(%d)", uint8(o))
}
