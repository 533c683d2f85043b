package txn

import (
	"math"

	"opdelta/internal/catalog"
	"opdelta/internal/keyset"
)

// rangeNode is one granted key-range lock, stored in a per-table
// interval tree.
type rangeNode struct {
	tx   ID
	mode LockMode // Shared or Exclusive
	r    keyset.KeyRange

	left, right *rangeNode
	// size counts the nodes of this subtree, for the scapegoat check.
	size int
	// maxHi is the greatest upper bound anywhere in this subtree;
	// maxHiInf marks a subtree holding an interval unbounded above, in
	// which case nothing below it can be pruned.
	maxHi    catalog.Value
	maxHiInf bool
}

// rangeTree is an interval tree of the granted range locks on one
// table: a binary search tree ordered by interval lower bound, each
// node augmented with its subtree's maximum upper bound so overlap
// queries can skip subtrees that end before the query starts.
//
// Grants are often ascending — AcquireRanges takes a request's ranges
// in sorted order, and keys are often sequential — which would grow a
// plain BST into a list. The tree is a scapegoat tree instead: an
// insert that lands deeper than log_{3/2} of the size rebuilds, balanced,
// the subtree of the lowest ancestor whose one child holds more than
// 2/3 of it, so depth stays within 1.71·log2(n)+1 at amortized
// O(log n) per insert.
//
// Locks are only ever removed in bulk (ReleaseAll dropping one
// transaction), so deletion rebuilds the tree balanced from the
// surviving nodes instead of splicing.
type rangeTree struct {
	root *rangeNode
	size int
	// class is the comparison class of every bound seen since the tree
	// was last empty (int and float share the numeric class — the
	// catalog orders them across types). Mixed classes have no catalog
	// order: once a second class appears, mixed disables pruning so
	// queries degrade to a full walk and the conservative overlap test
	// decides every node. In practice a table's bounds are all of its
	// primary-key type and this never triggers.
	class catalog.Type
	mixed bool
}

func classOf(t catalog.Type) catalog.Type {
	if t == catalog.TypeInt64 {
		return catalog.TypeFloat64
	}
	return t
}

func (t *rangeTree) noteClass(v catalog.Value, bounded bool) {
	if !bounded || t.mixed {
		return
	}
	c := classOf(v.Type())
	if t.class == catalog.TypeInvalid {
		t.class = c
	} else if t.class != c {
		t.mixed = true
	}
}

// lnThreeHalves is ln(3/2): an insert deeper than ln(size)/lnThreeHalves
// edges finds a scapegoat.
const lnThreeHalves = 0.4054651081081644

func (t *rangeTree) insert(tx ID, mode LockMode, r keyset.KeyRange) {
	t.noteClass(r.Lo, r.HasLo)
	t.noteClass(r.Hi, r.HasHi)
	n := &rangeNode{tx: tx, mode: mode, r: r, size: 1}
	n.recomputeMax()
	t.size++
	var stack [64]*rangeNode // the depth bound keeps paths below 64 nodes up to 2^36 ranges
	path := stack[:0]
	link := &t.root
	for *link != nil {
		cur := *link
		cur.size++
		path = append(path, cur)
		if keyset.CompareLo(n.r, cur.r) < 0 {
			link = &cur.left
		} else {
			link = &cur.right
		}
	}
	*link = n
	for i := len(path) - 1; i >= 0; i-- {
		path[i].recomputeMax()
	}
	if float64(len(path)) > math.Log(float64(t.size))/lnThreeHalves {
		t.rebuildScapegoat(path, n)
	}
}

// rebuildScapegoat rebuilds, balanced, the subtree of the lowest node on
// path (the ancestors of n, root first) whose child towards n holds more
// than 2/3 of it. One exists when n lies deeper than log_{3/2} of the
// tree's size. The subtree keeps its nodes, so the sizes and bounds of
// the ancestors above it stand.
func (t *rangeTree) rebuildScapegoat(path []*rangeNode, n *rangeNode) {
	child := n
	for i := len(path) - 1; i >= 0; i-- {
		p := path[i]
		if 3*child.size > 2*p.size {
			nodes := make([]*rangeNode, 0, p.size)
			collectInOrder(p, &nodes)
			sub := buildBalanced(nodes)
			switch {
			case i == 0:
				t.root = sub
			case path[i-1].left == p:
				path[i-1].left = sub
			default:
				path[i-1].right = sub
			}
			return
		}
		child = p
	}
}

func (n *rangeNode) recomputeMax() {
	n.maxHiInf = !n.r.HasHi
	n.maxHi = n.r.Hi
	for _, c := range []*rangeNode{n.left, n.right} {
		if c == nil || n.maxHiInf {
			continue
		}
		if c.maxHiInf {
			n.maxHiInf = true
			continue
		}
		if keyset.TotalCompare(c.maxHi, n.maxHi) > 0 {
			n.maxHi = c.maxHi
		}
	}
}

// overlapping visits every node whose interval may share a key with r
// (conservative on incomparable bounds). visit returning false stops
// the walk.
func (t *rangeTree) overlapping(r keyset.KeyRange, visit func(*rangeNode) bool) {
	prune := !t.mixed && t.class != catalog.TypeInvalid
	if prune && r.HasLo && classOf(r.Lo.Type()) != t.class {
		prune = false
	}
	if prune && r.HasHi && classOf(r.Hi.Type()) != t.class {
		prune = false
	}
	walkOverlap(t.root, r, prune, visit)
}

func walkOverlap(n *rangeNode, r keyset.KeyRange, prune bool, visit func(*rangeNode) bool) bool {
	if n == nil {
		return true
	}
	// Every interval in this subtree ends strictly before r starts.
	// Equal bounds are not pruned: whether they touch depends on open
	// flags the aggregate does not carry.
	if prune && r.HasLo && !n.maxHiInf && keyset.TotalCompare(n.maxHi, r.Lo) < 0 {
		return true
	}
	if !walkOverlap(n.left, r, prune, visit) {
		return false
	}
	if n.r.Intersects(r) && !visit(n) {
		return false
	}
	// The right subtree's lower bounds are all >= n's; once n itself
	// starts strictly past r's end, so does everything to its right.
	if prune && r.HasHi && n.r.HasLo && keyset.TotalCompare(n.r.Lo, r.Hi) > 0 {
		return true
	}
	return walkOverlap(n.right, r, prune, visit)
}

// removeTx drops every node owned by tx, rebuilding the tree balanced
// from the in-order survivors.
func (t *rangeTree) removeTx(tx ID) {
	if t.root == nil {
		return
	}
	nodes := make([]*rangeNode, 0, t.size)
	collectInOrder(t.root, &nodes)
	keep := nodes[:0]
	for _, n := range nodes {
		if n.tx != tx {
			keep = append(keep, n)
		}
	}
	t.size = len(keep)
	t.root = buildBalanced(keep)
	if t.size == 0 {
		t.class, t.mixed = catalog.TypeInvalid, false
	}
}

func collectInOrder(n *rangeNode, out *[]*rangeNode) {
	if n == nil {
		return
	}
	collectInOrder(n.left, out)
	*out = append(*out, n)
	collectInOrder(n.right, out)
}

func buildBalanced(nodes []*rangeNode) *rangeNode {
	if len(nodes) == 0 {
		return nil
	}
	mid := len(nodes) / 2
	n := nodes[mid]
	n.left = buildBalanced(nodes[:mid])
	n.right = buildBalanced(nodes[mid+1:])
	n.size = len(nodes)
	n.recomputeMax()
	return n
}
