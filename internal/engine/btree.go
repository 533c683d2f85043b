package engine

import (
	"fmt"

	"opdelta/internal/catalog"
	"opdelta/internal/storage"
)

// btree is an in-memory B+-tree mapping primary-key values to RIDs. It
// supports point lookups and ordered range scans, which gives UPDATE /
// DELETE / SELECT statements with primary-key range predicates an
// index path instead of a full scan. Keys are catalog.Values ordered by
// catalog.Compare. A whole tree is only ever built bottom-up from a
// sorted run (buildBtree, bulk.go), at open, after a load and by CREATE
// INDEX; Insert and Delete maintain it online.
//
// Deletions remove entries without rebalancing; nodes may go underfull
// (never incorrect). For the engine's workloads — bulk builds plus
// online churn — this keeps the code small at a modest space cost.
type btree struct {
	root   node
	height int
	size   int
}

const btreeOrder = 64 // max keys per node

type node interface {
	// insert returns a new right sibling and its separator key when the
	// node split.
	insert(key catalog.Value, rid storage.RID) (sep catalog.Value, right node, grew bool, err error)
	get(key catalog.Value) (storage.RID, bool)
	del(key catalog.Value) bool
	// scan visits entries with key in [lo, hi] (nil bounds = open) in
	// order; returns false to stop.
	scan(lo, hi *catalog.Value, fn func(catalog.Value, storage.RID) bool) bool
	// scanDesc visits every entry in descending key order; returns false
	// to stop.
	scanDesc(fn func(catalog.Value, storage.RID) bool) bool
}

type leaf struct {
	keys []catalog.Value
	rids []storage.RID
}

type inner struct {
	// keys[i] separates children[i] (< keys[i]) from children[i+1] (>= keys[i]).
	keys     []catalog.Value
	children []node
}

func newBtree() *btree {
	return &btree{root: &leaf{}, height: 1}
}

// mustCompare panics on incomparable keys: the index only ever sees one
// column's type, so a mismatch is an engine bug, not user error.
func mustCompare(a, b *catalog.Value) int {
	c, err := catalog.ComparePtr(a, b)
	if err != nil {
		panic(fmt.Sprintf("engine: index key comparison: %v", err))
	}
	return c
}

// search returns the first index i in keys with keys[i] >= key.
func searchKeys(keys []catalog.Value, key *catalog.Value) int {
	lo, hi := 0, len(keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if mustCompare(&keys[mid], key) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

func (t *btree) Insert(key catalog.Value, rid storage.RID) error {
	sep, right, grew, err := t.root.insert(key, rid)
	if err != nil {
		return err
	}
	if grew {
		t.size++
	}
	if right != nil {
		t.root = &inner{keys: []catalog.Value{sep}, children: []node{t.root, right}}
		t.height++
	}
	return nil
}

func (t *btree) Get(key catalog.Value) (storage.RID, bool) {
	return t.root.get(key)
}

func (t *btree) Delete(key catalog.Value) bool {
	if t.root.del(key) {
		t.size--
		return true
	}
	return false
}

func (t *btree) Len() int { return t.size }

// Range visits entries with lo <= key <= hi in key order. Nil bounds
// are open ends.
func (t *btree) Range(lo, hi *catalog.Value, fn func(catalog.Value, storage.RID) bool) {
	t.root.scan(lo, hi, fn)
}

// Descend visits every entry in descending key order until fn returns
// false.
func (t *btree) Descend(fn func(catalog.Value, storage.RID) bool) {
	t.root.scanDesc(fn)
}

var errDuplicateKey = fmt.Errorf("engine: duplicate key in unique index")

func (l *leaf) insert(key catalog.Value, rid storage.RID) (catalog.Value, node, bool, error) {
	i := searchKeys(l.keys, &key)
	if i < len(l.keys) && mustCompare(&l.keys[i], &key) == 0 {
		return catalog.Value{}, nil, false, errDuplicateKey
	}
	l.keys = append(l.keys, catalog.Value{})
	copy(l.keys[i+1:], l.keys[i:])
	l.keys[i] = key
	l.rids = append(l.rids, storage.RID{})
	copy(l.rids[i+1:], l.rids[i:])
	l.rids[i] = rid
	if len(l.keys) <= btreeOrder {
		return catalog.Value{}, nil, true, nil
	}
	mid := len(l.keys) / 2
	right := &leaf{
		keys: append([]catalog.Value(nil), l.keys[mid:]...),
		rids: append([]storage.RID(nil), l.rids[mid:]...),
	}
	l.keys = l.keys[:mid:mid]
	l.rids = l.rids[:mid:mid]
	return right.keys[0], right, true, nil
}

func (l *leaf) get(key catalog.Value) (storage.RID, bool) {
	i := searchKeys(l.keys, &key)
	if i < len(l.keys) && mustCompare(&l.keys[i], &key) == 0 {
		return l.rids[i], true
	}
	return storage.InvalidRID, false
}

func (l *leaf) del(key catalog.Value) bool {
	i := searchKeys(l.keys, &key)
	if i < len(l.keys) && mustCompare(&l.keys[i], &key) == 0 {
		l.keys = append(l.keys[:i], l.keys[i+1:]...)
		l.rids = append(l.rids[:i], l.rids[i+1:]...)
		return true
	}
	return false
}

func (l *leaf) scan(lo, hi *catalog.Value, fn func(catalog.Value, storage.RID) bool) bool {
	start := 0
	if lo != nil {
		start = searchKeys(l.keys, lo)
	}
	for i := start; i < len(l.keys); i++ {
		if hi != nil && mustCompare(&l.keys[i], hi) > 0 {
			return false
		}
		if !fn(l.keys[i], l.rids[i]) {
			return false
		}
	}
	return true
}

func (l *leaf) scanDesc(fn func(catalog.Value, storage.RID) bool) bool {
	for i := len(l.keys) - 1; i >= 0; i-- {
		if !fn(l.keys[i], l.rids[i]) {
			return false
		}
	}
	return true
}

func (n *inner) childFor(key *catalog.Value) int {
	i := searchKeys(n.keys, key)
	if i < len(n.keys) && mustCompare(&n.keys[i], key) == 0 {
		return i + 1 // separators live in the right subtree
	}
	return i
}

func (n *inner) insert(key catalog.Value, rid storage.RID) (catalog.Value, node, bool, error) {
	ci := n.childFor(&key)
	sep, right, grew, err := n.children[ci].insert(key, rid)
	if err != nil {
		return catalog.Value{}, nil, false, err
	}
	if right != nil {
		n.keys = append(n.keys, catalog.Value{})
		copy(n.keys[ci+1:], n.keys[ci:])
		n.keys[ci] = sep
		n.children = append(n.children, nil)
		copy(n.children[ci+2:], n.children[ci+1:])
		n.children[ci+1] = right
		if len(n.keys) > btreeOrder {
			mid := len(n.keys) / 2
			upSep := n.keys[mid]
			newRight := &inner{
				keys:     append([]catalog.Value(nil), n.keys[mid+1:]...),
				children: append([]node(nil), n.children[mid+1:]...),
			}
			n.keys = n.keys[:mid:mid]
			n.children = n.children[: mid+1 : mid+1]
			return upSep, newRight, grew, nil
		}
	}
	return catalog.Value{}, nil, grew, nil
}

func (n *inner) get(key catalog.Value) (storage.RID, bool) {
	return n.children[n.childFor(&key)].get(key)
}

func (n *inner) del(key catalog.Value) bool {
	return n.children[n.childFor(&key)].del(key)
}

func (n *inner) scan(lo, hi *catalog.Value, fn func(catalog.Value, storage.RID) bool) bool {
	start := 0
	if lo != nil {
		start = n.childFor(lo)
	}
	for i := start; i < len(n.children); i++ {
		if i > 0 && hi != nil && mustCompare(&n.keys[i-1], hi) > 0 {
			return true
		}
		if !n.children[i].scan(lo, hi, fn) {
			return false
		}
	}
	return true
}

func (n *inner) scanDesc(fn func(catalog.Value, storage.RID) bool) bool {
	for i := len(n.children) - 1; i >= 0; i-- {
		if !n.children[i].scanDesc(fn) {
			return false
		}
	}
	return true
}
