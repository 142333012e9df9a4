package amnet

import "math/bits"

// This file implements the "hypercube-like minimum spanning tree
// communication structure" the paper uses for broadcast: a binomial tree
// over the P nodes, rooted at the broadcasting node.  Nodes are renumbered
// relative to the root; node rel's children are rel + 2^j for the j below
// rel's lowest set bit (all j with 2^j < P for the root).  The tree has
// depth ceil(log2 P) and every node forwards to at most log2 P children,
// which is what makes broadcast latency logarithmic.

// TreeChildren appends to dst the children of node self in the binomial
// broadcast tree rooted at root over p nodes, and returns the extended
// slice.  Passing a reusable dst avoids allocation on the broadcast fast
// path.
func TreeChildren(dst []NodeID, root, self NodeID, p int) []NodeID {
	rel := int(self) - int(root)
	if rel < 0 {
		rel += p
	}
	// A node's children flip one bit below its lowest set bit; the root
	// (rel == 0) fans out to every power of two below p.
	var limit int
	if rel == 0 {
		limit = bits.Len(uint(p-1)) + 1
	} else {
		limit = bits.TrailingZeros(uint(rel))
	}
	for j := 0; j < limit; j++ {
		c := rel + 1<<j
		if c >= p {
			break
		}
		abs := c + int(root)
		if abs >= p {
			abs -= p
		}
		dst = append(dst, NodeID(abs))
	}
	return dst
}

// TreeParent returns the parent of self in the binomial tree rooted at
// root over p nodes, or NoNode if self is the root.  Used by reductions
// (gather along the reverse tree).
func TreeParent(root, self NodeID, p int) NodeID {
	rel := int(self) - int(root)
	if rel < 0 {
		rel += p
	}
	if rel == 0 {
		return NoNode
	}
	k := bits.TrailingZeros(uint(rel))
	parentRel := rel &^ (1 << k)
	abs := parentRel + int(root)
	if abs >= p {
		abs -= p
	}
	return NodeID(abs)
}

// TreeDepth returns the depth of self below root in the binomial tree
// (root has depth 0).
func TreeDepth(root, self NodeID, p int) int {
	rel := int(self) - int(root)
	if rel < 0 {
		rel += p
	}
	return bits.OnesCount(uint(rel))
}
