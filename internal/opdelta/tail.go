package opdelta

import (
	"slices"
	"sync"
	"sync/atomic"

	"opdelta/internal/catalog"
)

// Tail budget: the committed-op tail evicts from its low end once it
// holds more than tailMaxOps ops or tailMaxBytes of (estimated) op
// payload. A shipper that keeps up reads a handful of ops behind the
// head, so the budget only has to cover the deepest backlog worth
// serving from memory; anything older is read back from storage.
const (
	tailMaxOps   = 1 << 15
	tailMaxBytes = 16 << 20
)

// opTail is the sequencing state both logs share: the seq counter, the
// resolution state of every assigned seq, and a bounded in-memory tail
// of committed ops.
//
// An op's seq is assigned at Append time, inside the capturing
// transaction, so the highest assigned seq alone says nothing about
// what has committed — and two transactions can commit in the opposite
// order of their seqs. The tail therefore publishes a committed op only
// once every lower seq has resolved (committed or aborted): readers see
// a gap-free, strictly ascending prefix of the committed history and a
// cursor that has passed seq n can never be overtaken by a late commit
// at or below n. Aborted seqs simply never appear.
//
// Invariants, all under mu:
//
//   - ops is strictly ascending by Seq, every element committed and
//     durable (logs resolve from the post-durability commit hook);
//   - every op in ops, parked, or published later has Seq > floor, and
//     floor never exceeds the resolved horizon;
//   - a committed op with Seq > floor that is not in ops is in parked,
//     waiting for a lower seq to resolve — so a reader at or above the
//     floor needs nothing but ops, and a reader below it needs storage
//     only for (from, floor].
//
// Slices handed to readers alias ops' backing array. The tail only ever
// appends to it or re-slices it from the front, never writes a published
// element again, so readers need no copy.
type opTail struct {
	seq atomic.Uint64 // last assigned seq; advanced under mu, read lock-free

	mu           sync.Mutex
	unresolved   map[uint64]struct{}
	maxCommitted uint64
	parked       []*Op  // committed, above an unresolved seq; ascending
	ops          []*Op  // published
	floor        uint64 // see invariants
	bytes        int    // sum of opBytes over ops
}

// open initializes the tail of a freshly opened log: ops are all the
// committed ops above floor, ascending (nil when none are in memory).
func (t *opTail) open(floor uint64, ops []*Op) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.unresolved = make(map[uint64]struct{})
	t.floor, t.ops = floor, ops
	for _, op := range ops {
		t.bytes += opBytes(op)
	}
	t.seq.Store(t.lastLocked())
	t.evictLocked(tailMaxOps, tailMaxBytes)
}

// lastLocked returns the highest seq published so far. Eviction and
// truncation leave the floor at the last op they removed, so with an
// empty tail that is the floor.
func (t *opTail) lastLocked() uint64 {
	if n := len(t.ops); n > 0 {
		return t.ops[n-1].Seq
	}
	return t.floor
}

// assign hands out the next seq and marks it in flight. Assignment and
// registration are one critical section, so the horizon can never step
// over a seq that has been taken but not yet registered.
func (t *opTail) assign() uint64 {
	t.mu.Lock()
	seq := t.seq.Add(1)
	t.unresolved[seq] = struct{}{}
	t.mu.Unlock()
	return seq
}

// resolve records the outcome of in-flight ops. Committed ops must be
// durable already; they are published as soon as no lower seq is still
// in flight.
func (t *opTail) resolve(committed bool, ops ...*Op) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, op := range ops {
		delete(t.unresolved, op.Seq)
		if !committed {
			continue
		}
		if op.Seq > t.maxCommitted {
			t.maxCommitted = op.Seq
		}
		t.parked = slices.Insert(t.parked, firstAbove(t.parked, op.Seq), op)
	}
	low := ^uint64(0) // lowest seq still in flight
	for seq := range t.unresolved {
		if seq < low {
			low = seq
		}
	}
	n := 0
	for n < len(t.parked) && t.parked[n].Seq < low {
		t.ops = append(t.ops, t.parked[n])
		t.bytes += opBytes(t.parked[n])
		n++
	}
	if n == 0 {
		return
	}
	t.parked = slices.Delete(t.parked, 0, n)
	t.evictLocked(tailMaxOps, tailMaxBytes)
}

// evictLocked drops ops from the low end until the tail fits the
// budget, raising the floor past each one.
func (t *opTail) evictLocked(maxOps, maxBytes int) {
	for len(t.ops) > 0 && (len(t.ops) > maxOps || t.bytes > maxBytes) {
		t.floor = t.ops[0].Seq
		t.bytes -= opBytes(t.ops[0])
		t.ops = t.ops[1:]
	}
}

// horizon returns the resolved horizon — the largest seq such that no
// op at or below it is still in flight — and the highest committed seq.
func (t *opTail) horizon() (resolved, maxCommitted uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	resolved = t.seq.Load()
	for seq := range t.unresolved {
		if seq-1 < resolved {
			resolved = seq - 1
		}
	}
	return resolved, t.maxCommitted
}

// read returns the published ops with Seq > from, and the floor. When
// from < floor the slice is the whole tail and the caller owes the
// reader the committed ops in (from, floor] from storage, in front of
// it. The slice is capped at its length: appending to it copies.
func (t *opTail) read(from uint64) (ops []*Op, floor uint64) {
	t.mu.Lock()
	ops, floor = t.ops, t.floor
	t.mu.Unlock()
	if from > floor {
		ops = ops[firstAbove(ops, from):]
	}
	return ops[:len(ops):len(ops)], floor
}

// truncate forgets ops at or below upto after the log deleted them from
// storage, and raises the floor to match: nothing at or below upto is
// left to read. The floor stops at the highest published seq — callers
// may truncate past the head to clear a log, and seqs the tail has yet
// to publish must stay above the floor.
func (t *opTail) truncate(upto uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.floor = max(t.floor, min(upto, t.lastLocked()))
	n := firstAbove(t.ops, upto)
	for _, op := range t.ops[:n] {
		t.bytes -= opBytes(op)
	}
	t.ops = t.ops[n:]
	t.parked = slices.Delete(t.parked, 0, firstAbove(t.parked, upto))
}

// firstAbove returns the index of the first op with Seq > seq in an
// ascending slice. Readers tail the log, so the answer is almost always
// a few ops from the end: gallop back from there — over ops that were
// just published and are still in cache — before bisecting.
func firstAbove(ops []*Op, seq uint64) int {
	lo, hi := 0, len(ops)
	for step := 1; hi > 0; step *= 2 {
		p := max(hi-step, 0)
		if ops[p].Seq <= seq {
			lo = p + 1
			break
		}
		hi = p
	}
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if ops[mid].Seq <= seq {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// opBytes estimates the memory an op pins while it sits in the tail.
func opBytes(op *Op) int {
	n := 96 + len(op.Table) + len(op.Stmt)
	for _, img := range op.Before {
		n += 24
		for _, v := range img {
			n += 48
			if v.IsNull() {
				continue
			}
			switch v.Type() {
			case catalog.TypeString:
				n += len(v.Str())
			case catalog.TypeBytes:
				n += len(v.BytesVal())
			}
		}
	}
	return n
}
