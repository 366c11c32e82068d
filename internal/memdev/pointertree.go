package memdev

import (
	"fmt"
	"sort"

	"repro/internal/fabric"
	"repro/internal/sim"
)

// PointerTree is a B+-tree-shaped hierarchical structure resident in
// memory, used to evaluate Section 5.4's pointer-chasing functional
// unit: "given a data block format and a key, traverse a hierarchical
// structure and only send leaf data blocks up the pipeline".
type PointerTree struct {
	Fanout int
	// levels[0] is the root level (one node), the last level holds
	// leaves. Each internal node stores Fanout separator keys; each leaf
	// stores Fanout key/value pairs.
	levels [][]treeNode
}

type treeNode struct {
	keys []int64
	vals []int64 // leaves only
}

// NodeBytes is the transfer size of one tree node: keys plus values or
// child pointers at 8 bytes each.
func (t *PointerTree) NodeBytes() sim.Bytes {
	return sim.Bytes(t.Fanout * 16)
}

// Depth reports the number of levels (root to leaf inclusive).
func (t *PointerTree) Depth() int { return len(t.levels) }

// BuildPointerTree builds a tree over the given key/value pairs with the
// given fanout. Keys are sorted internally.
func BuildPointerTree(keys, vals []int64, fanout int) (*PointerTree, error) {
	if len(keys) != len(vals) {
		return nil, fmt.Errorf("memdev: %d keys but %d values", len(keys), len(vals))
	}
	if len(keys) == 0 {
		return nil, fmt.Errorf("memdev: cannot build empty pointer tree")
	}
	if fanout < 2 {
		return nil, fmt.Errorf("memdev: fanout %d < 2", fanout)
	}
	idx := make([]int, len(keys))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return keys[idx[a]] < keys[idx[b]] })

	// Leaves.
	var leaves []treeNode
	for off := 0; off < len(idx); off += fanout {
		end := off + fanout
		if end > len(idx) {
			end = len(idx)
		}
		var n treeNode
		for _, i := range idx[off:end] {
			n.keys = append(n.keys, keys[i])
			n.vals = append(n.vals, vals[i])
		}
		leaves = append(leaves, n)
	}
	levels := [][]treeNode{leaves}
	// Internal levels: each node stores the max key of each child.
	for len(levels[0]) > 1 {
		children := levels[0]
		var parents []treeNode
		for off := 0; off < len(children); off += fanout {
			end := off + fanout
			if end > len(children) {
				end = len(children)
			}
			var n treeNode
			for _, c := range children[off:end] {
				n.keys = append(n.keys, c.keys[len(c.keys)-1])
			}
			parents = append(parents, n)
		}
		levels = append([][]treeNode{parents}, levels...)
	}
	return &PointerTree{Fanout: fanout, levels: levels}, nil
}

// lookupPath walks root-to-leaf and returns the value plus the number of
// nodes visited. found is false for absent keys.
func (t *PointerTree) lookupPath(key int64) (val int64, hops int, found bool) {
	node := 0
	for lvl := 0; lvl < len(t.levels); lvl++ {
		n := &t.levels[lvl][node]
		hops++
		if lvl == len(t.levels)-1 {
			for i, k := range n.keys {
				if k == key {
					return n.vals[i], hops, true
				}
			}
			return 0, hops, false
		}
		// Pick the first child whose max key covers ours.
		child := len(n.keys) - 1
		for i, k := range n.keys {
			if key <= k {
				child = i
				break
			}
		}
		node = node*t.Fanout + child
	}
	return 0, hops, false
}

// LookupCPU performs the traversal CPU-side: every visited node crosses
// link (one round trip per hop — the CPU must see the node before it can
// decide which block to request next). The movement dominates; the
// CPU's own work per hop is the 8-byte pointer decision.
func (t *PointerTree) LookupCPU(key int64, link *fabric.Link, cpu *fabric.Device) (int64, bool, AccessStats) {
	var st AccessStats
	val, hops, found := t.lookupPath(key)
	for i := 0; i < hops; i++ {
		// Request message up, node payload down.
		st.Time += link.Message()
		st.Time += link.Transfer(t.NodeBytes())
		st.Time += cpu.Charge(fabric.OpPointerChase, 8)
		st.BytesMoved += t.NodeBytes()
	}
	return val, found, st
}

// LookupNear performs the traversal on the near-memory accelerator: the
// walk happens at DRAM latency per hop and only the 16-byte leaf entry
// crosses the link.
func (t *PointerTree) LookupNear(key int64, mem *Memory, link *fabric.Link) (int64, bool, AccessStats, error) {
	var st AccessStats
	if mem.Accel == nil {
		return 0, false, st, fmt.Errorf("memdev: %s has no near-memory accelerator", mem.Name)
	}
	val, hops, found := t.lookupPath(key)
	for i := 0; i < hops; i++ {
		st.Time += fabric.DDRLatency
		st.Time += mem.Accel.Charge(fabric.OpPointerChase, t.NodeBytes())
	}
	st.Time += link.Transfer(16)
	st.BytesMoved = 16
	return val, found, st, nil
}
