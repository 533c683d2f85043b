package engine

import (
	"fmt"
	"sort"

	"opdelta/internal/catalog"
	"opdelta/internal/storage"
)

// Bulk index build. Every whole index is built one way — Open's and the
// loader's rebuild of a table's indexes, and CREATE INDEX's backfill:
// one heap scan collects a run of (key, RID) per index, each run is
// sorted unless the heap was already in key order, and each tree is
// built bottom-up from its run. Per-row Insert and Delete are left to
// online maintenance.

// indexRun is a run of index entries: keys[i] maps to rids[i].
type indexRun struct {
	keys []catalog.Value
	rids []storage.RID
}

func newIndexRun(n int) indexRun {
	return indexRun{keys: make([]catalog.Value, 0, n), rids: make([]storage.RID, 0, n)}
}

func (r *indexRun) add(key catalog.Value, rid storage.RID) {
	r.keys = append(r.keys, key)
	r.rids = append(r.rids, rid)
}

func (r *indexRun) Len() int { return len(r.keys) }

func (r *indexRun) Less(i, j int) bool {
	if c := mustCompare(&r.keys[i], &r.keys[j]); c != 0 {
		return c < 0
	}
	return ridLess(r.rids[i], r.rids[j])
}

func (r *indexRun) Swap(i, j int) {
	r.keys[i], r.keys[j] = r.keys[j], r.keys[i]
	r.rids[i], r.rids[j] = r.rids[j], r.rids[i]
}

func ridLess(a, b storage.RID) bool {
	return a.Page < b.Page || (a.Page == b.Page && a.Slot < b.Slot)
}

// order sorts the run by key, equal keys by RID, and returns the
// position of the duplicate that inserting the entries one at a time in
// heap order would have failed on first, or -1 when the keys are
// unique. A run already in strictly ascending key order, as a heap
// loaded in key order yields, is left as it is.
func (r *indexRun) order() int {
	for i := 1; i < len(r.keys); i++ {
		if mustCompare(&r.keys[i-1], &r.keys[i]) >= 0 {
			sort.Sort(r)
			return r.firstDuplicate()
		}
	}
	return -1
}

// firstDuplicate returns, of the entries whose key equals their sorted
// predecessor's, the one with the lowest RID, or -1.
func (r *indexRun) firstDuplicate() int {
	dup := -1
	for i := 1; i < len(r.keys); i++ {
		if mustCompare(&r.keys[i-1], &r.keys[i]) == 0 && (dup < 0 || ridLess(r.rids[i], r.rids[dup])) {
			dup = i
		}
	}
	return dup
}

// packBounds splits n entries into ⌈n/limit⌉ nodes of limit entries
// each and returns each node's end offset. The last two nodes share
// their entries evenly when the last would hold fewer than half of
// limit.
func packBounds(n, limit int) []int {
	ends := make([]int, 0, (n+limit-1)/limit)
	for end := limit; end < n; end += limit {
		ends = append(ends, end)
	}
	ends = append(ends, n)
	if k := len(ends); k >= 2 && n-ends[k-2] < (limit+1)/2 {
		start := 0
		if k >= 3 {
			start = ends[k-3]
		}
		ends[k-2] = start + (n-start)/2
	}
	return ends
}

// buildBtree builds a tree from a run in strictly ascending key order.
// The leaves take the run's arrays over: each leaf is a window of them
// whose capacity ends where the next leaf starts, so a later insert
// reallocates its leaf instead of writing into a neighbour.
func buildBtree(run indexRun) *btree {
	n := len(run.keys)
	if n == 0 {
		return newBtree()
	}
	ends := packBounds(n, btreeOrder)
	leaves := make([]leaf, len(ends))
	level := make([]node, len(ends))
	firsts := make([]catalog.Value, len(ends)) // first key of each node's subtree
	start := 0
	for i, end := range ends {
		leaves[i] = leaf{keys: run.keys[start:end:end], rids: run.rids[start:end:end]}
		level[i], firsts[i] = &leaves[i], run.keys[start]
		start = end
	}
	height := 1
	for len(level) > 1 {
		ends := packBounds(len(level), btreeOrder+1)
		inners := make([]inner, len(ends))
		seps := make([]catalog.Value, len(level)-len(ends))
		up := make([]node, len(ends))
		upFirsts := make([]catalog.Value, len(ends))
		start := 0
		for i, end := range ends {
			k := end - start - 1
			inners[i] = inner{keys: seps[:k:k], children: level[start:end:end]}
			copy(seps, firsts[start+1:end])
			seps = seps[k:]
			up[i], upFirsts[i] = &inners[i], firsts[start]
			start = end
		}
		level, firsts = up, upFirsts
		height++
	}
	return &btree{root: level[0], height: height, size: n}
}

// buildIndexes scans the heap once and builds from it the primary-key
// tree when pk is set, and one secondary-index tree per column position
// in secCols, in that order. The caller keeps writers off the table for
// the scan.
func (t *Table) buildIndexes(pk bool, secCols []int) (*btree, []*btree, error) {
	rows := int(t.heap.NumRecords())
	var pkRun indexRun
	if pk {
		pkRun = newIndexRun(rows)
	}
	secRuns := make([]indexRun, len(secCols))
	for i := range secRuns {
		secRuns[i] = newIndexRun(rows)
	}
	tup := make(catalog.Tuple, t.Schema.NumColumns())
	var arena keyArena
	err := t.heap.Scan(func(rid storage.RID, rec []byte) (bool, error) {
		// The tuple aliases the page buffer, which is safe only for the
		// length of this call; the keys the trees keep are copied out of
		// it into the arena.
		if err := catalog.DecodeTupleShared(t.Schema, rec, tup); err != nil {
			return false, fmt.Errorf("engine: %s at %v: %w", t.Name, rid, err)
		}
		if pk {
			pkRun.add(arena.own(tup[t.PKCol]), rid)
		}
		for i, col := range secCols {
			key, err := arena.entryKey(tup[col], rid)
			if err != nil {
				return false, err
			}
			secRuns[i].add(key, rid)
		}
		return true, nil
	})
	if err != nil {
		return nil, nil, err
	}
	var pkTree *btree
	if pk {
		if dup := pkRun.order(); dup >= 0 {
			return nil, nil, fmt.Errorf("engine: %s at %v: duplicate key %s", t.Name, pkRun.rids[dup], pkRun.keys[dup])
		}
		pkTree = buildBtree(pkRun)
	}
	secTrees := make([]*btree, len(secRuns))
	for i, run := range secRuns {
		run.order() // composite keys end in their RID: never equal
		secTrees[i] = buildBtree(run)
	}
	return pkTree, secTrees, nil
}

// keyArena holds the String and Bytes keys a build keeps, copied out of
// the page buffers they were decoded over into shared chunks, so a run
// of keys costs a few allocations rather than one per key. A key's
// bytes are never written once carved.
type keyArena struct{ buf []byte }

// keyChunk is the size of the chunks keyArena carves keys out of, and
// keyRoom the room it makes for a composite key before encoding one.
const (
	keyChunk = 64 << 10
	keyRoom  = 256
)

// reserve makes room for n more bytes in the current chunk.
func (a *keyArena) reserve(n int) {
	if cap(a.buf)-len(a.buf) < n {
		a.buf = make([]byte, 0, max(n, keyChunk))
	}
}

// carve returns the bytes appended since start, capped so that no later
// append writes into them.
func (a *keyArena) carve(start int) []byte {
	return a.buf[start:len(a.buf):len(a.buf)]
}

// own returns v with a String or Bytes payload copied into the arena.
func (a *keyArena) own(v catalog.Value) catalog.Value {
	if v.IsNull() {
		return v
	}
	switch v.Type() {
	case catalog.TypeString:
		return catalog.NewStringShared(arenaCopy(a, v.Str()))
	case catalog.TypeBytes:
		return catalog.NewBytes(arenaCopy(a, v.BytesVal()))
	}
	return v
}

// arenaCopy carves a copy of p out of the arena.
func arenaCopy[P string | []byte](a *keyArena, p P) []byte {
	a.reserve(len(p))
	start := len(a.buf)
	a.buf = append(a.buf, p...)
	return a.carve(start)
}

// entryKey encodes the composite secondary-index key of (v, rid) into
// the arena. A key longer than keyRoom lands whole too: append then
// moves the chunk, and the keys carved before keep the old one.
func (a *keyArena) entryKey(v catalog.Value, rid storage.RID) (catalog.Value, error) {
	a.reserve(keyRoom)
	start := len(a.buf)
	buf, err := appendIndexEntry(a.buf, v, rid)
	if err != nil {
		return catalog.Value{}, err
	}
	a.buf = buf
	return catalog.NewBytes(a.carve(start)), nil
}
