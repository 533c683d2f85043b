package storage

import (
	"sync"
	"sync/atomic"

	"opdelta/internal/obs"
)

// VersionStore keeps prior tuple images for one heap table so snapshot
// readers can reconstruct the committed state at any commit LSN at or
// above the GC watermark, without taking locks. Chains are keyed by an
// opaque encoded primary-key string supplied by the engine (RIDs are
// unusable as identity here: updates relocate records and freed slots
// are eventually reused).
//
// A chain is newest-first. Its oldest entry is always the "base": the
// committed image that was in the heap before the first tracked
// modification, stamped with commit LSN 0 so it is visible to every
// snapshot. Entries above it are either resolved (commit > 0, the LSN
// of the writer's commit record) or pending (commit == 0, txn != 0):
// staged by an in-flight transaction and invisible to every snapshot
// until the writer resolves them with its commit LSN. A nil tuple means
// "absent" — a staged or committed delete, or a base for a key that did
// not exist.
//
// Write protocol (the engine's side of the race contract): a writer
// stages its version BEFORE it mutates the heap page, while a snapshot
// reader reads the heap row first and consults the chain second, under
// the page's stripe latch. If the reader saw uncommitted heap bytes,
// the writer's page-latch release happened-before the reader's acquire,
// so the staged chain entry is visible and overrides them; if no chain
// exists, the heap bytes are committed and speak for themselves.
//
// Lock order: a page stripe latch may be held while taking a version
// stripe lock (the reader path); the reverse never happens — writers
// stage with no heap latch held. The store never calls back into the
// heap.
type VersionStore struct {
	stripes [versionStripes]versionStripe

	// Shared across every table's store of one engine: the counters are
	// engine-wide in the exposition, and Live is the one version count
	// the engine's GC trigger reads.
	m *VersionMetrics
}

// VersionMetrics are the counts a VersionStore feeds. One instance is
// shared by all tables of an engine.
type VersionMetrics struct {
	// Live is the number of versions held across every store sharing
	// these metrics: stages add to it, aborts and GC subtract.
	Live      atomic.Int64
	Created   *obs.Counter   // mvcc_versions_created_total
	Reclaimed *obs.Counter   // mvcc_versions_reclaimed_total
	Passes    *obs.Counter   // mvcc_gc_passes_total (counted by the engine)
	Walked    *obs.Counter   // mvcc_gc_chains_walked_total
	ChainLen  *obs.Histogram // mvcc_version_chain_length (observed on stage)
}

// NewVersionMetrics registers the shared MVCC series on reg.
func NewVersionMetrics(reg *obs.Registry, labels ...obs.Label) *VersionMetrics {
	return &VersionMetrics{
		Created:   reg.Counter("mvcc_versions_created_total", labels...),
		Reclaimed: reg.Counter("mvcc_versions_reclaimed_total", labels...),
		Passes:    reg.Counter("mvcc_gc_passes_total", labels...),
		Walked:    reg.Counter("mvcc_gc_chains_walked_total", labels...),
		ChainLen:  reg.Histogram("mvcc_version_chain_length", obs.CountBuckets, labels...),
	}
}

const versionStripes = 64

type versionStripe struct {
	mu     sync.Mutex
	chains map[string]*versionChain
}

type versionChain struct {
	// vers is oldest first: vers[0] is always the base, and a write
	// appends, so staging on a hot key costs no copy of its history.
	vers []tupleVersion
	// first holds a new chain's two entries (the base and its first
	// write), so a first-touched key costs one allocation.
	first [2]tupleVersion
}

type tupleVersion struct {
	commit uint64 // commit LSN; 0 for the base and for pending entries
	txn    uint64 // staging transaction for pending entries; 0 once resolved
	tuple  []byte // encoded tuple image; nil = absent/deleted
}

func (v *tupleVersion) pending() bool { return v.commit == 0 && v.txn != 0 }

// NewVersionStore creates an empty store feeding m.
func NewVersionStore(m *VersionMetrics) *VersionStore {
	vs := &VersionStore{m: m}
	for i := range vs.stripes {
		vs.stripes[i].chains = make(map[string]*versionChain)
	}
	return vs
}

// fnv1a hashes the key for stripe selection.
func fnv1a(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

func (vs *VersionStore) stripe(key string) *versionStripe {
	return &vs.stripes[fnv1a(key)%versionStripes]
}

// Stage records txn's in-flight write of key: after is the new encoded
// image (nil for a delete), base the committed heap image the write
// replaces (nil when the key was absent). The base is consulted only
// when the key has no chain yet; an existing chain already carries the
// full committed history. Consecutive stages by the same transaction on
// the same key collapse into one pending entry (only the final image
// can commit); fresh reports that this stage added one, i.e. that txn
// must resolve or drop key when it finishes. The caller must hold an
// exclusive lock covering key, and must call Stage before mutating the
// heap.
func (vs *VersionStore) Stage(key string, txn uint64, base, after []byte) (fresh bool) {
	s := vs.stripe(key)
	s.mu.Lock()
	added := 0
	c := s.chains[key]
	switch {
	case c == nil:
		c = &versionChain{}
		c.first = [2]tupleVersion{{tuple: base}, {txn: txn, tuple: after}}
		c.vers = c.first[:]
		s.chains[key] = c
		added, fresh = 2, true
	case c.vers[len(c.vers)-1].pending() && c.vers[len(c.vers)-1].txn == txn:
		c.vers[len(c.vers)-1].tuple = after
	default:
		c.vers = append(c.vers, tupleVersion{txn: txn, tuple: after})
		added, fresh = 1, true
	}
	n := len(c.vers)
	s.mu.Unlock()
	if added > 0 {
		vs.m.Live.Add(int64(added))
		vs.m.Created.Add(uint64(added))
	}
	vs.m.ChainLen.Observe(float64(n))
	return fresh
}

// Resolve stamps txn's pending entries on the given keys with its
// commit LSN, making them visible to snapshots at or above it. Keys
// staged but since collapsed/aborted are skipped silently.
func (vs *VersionStore) Resolve(keys []string, txn, commit uint64) {
	for _, key := range keys {
		s := vs.stripe(key)
		s.mu.Lock()
		if c := s.chains[key]; c != nil {
			// Later transactions may already have staged above us (early
			// lock release), so scan down for our pending entry.
			for i := len(c.vers) - 1; i >= 0; i-- {
				if c.vers[i].pending() && c.vers[i].txn == txn {
					c.vers[i].commit = commit
					c.vers[i].txn = 0
					break
				}
			}
		}
		s.mu.Unlock()
	}
}

// DropTxn removes txn's pending entries on the given keys (abort path).
// The base and any resolved history stay; GC collapses them later.
func (vs *VersionStore) DropTxn(keys []string, txn uint64) {
	for _, key := range keys {
		s := vs.stripe(key)
		s.mu.Lock()
		if c := s.chains[key]; c != nil {
			for i := 0; i < len(c.vers); i++ {
				if c.vers[i].pending() && c.vers[i].txn == txn {
					c.vers = append(c.vers[:i], c.vers[i+1:]...)
					vs.m.Live.Add(-1)
					break
				}
			}
			if len(c.vers) == 0 {
				delete(s.chains, key)
			}
		}
		s.mu.Unlock()
	}
}

// Visible returns the committed image of key as of readLSN: the newest
// resolved version with commit <= readLSN. have=false means the key has
// no chain and the heap row (or its absence) is authoritative; have=true
// with a nil tuple means the key is absent at readLSN.
func (vs *VersionStore) Visible(key string, readLSN uint64) (tuple []byte, have bool) {
	s := vs.stripe(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	c := s.chains[key]
	if c == nil {
		return nil, false
	}
	for i := len(c.vers) - 1; i >= 0; i-- {
		v := &c.vers[i]
		if !v.pending() && v.commit <= readLSN {
			return v.tuple, true
		}
	}
	// Unreachable: the base (commit 0, txn 0) matches every readLSN.
	return nil, true
}

// VisibleSweep calls fn for every chained key whose visible image at
// readLSN is present (non-nil). Snapshot scans use it to surface rows
// the heap or index no longer shows — uncommitted deletes, mid-scan
// relocations. fn runs under a stripe lock and must not call back into
// the store.
func (vs *VersionStore) VisibleSweep(readLSN uint64, fn func(key string, tuple []byte)) {
	for i := range vs.stripes {
		s := &vs.stripes[i]
		s.mu.Lock()
		for key, c := range s.chains {
			for j := len(c.vers) - 1; j >= 0; j-- {
				v := &c.vers[j]
				if !v.pending() && v.commit <= readLSN {
					if v.tuple != nil {
						fn(key, v.tuple)
					}
					break
				}
			}
		}
		s.mu.Unlock()
	}
}

// GC prunes history no snapshot at or above watermark can read, across
// every chain: in each, versions older than the newest resolved version
// with commit <= watermark (the anchor) are dropped, and a chain
// reduced to just its anchor — no pending writes, no newer history — is
// removed entirely, because the heap row then carries the same image.
// Purely in-memory: GC performs no I/O and cannot perturb fault
// schedules. It returns the number of versions reclaimed and floor, the
// highest anchor commit LSN of any chain something was dropped from: a
// reader below that LSN could no longer reconstruct its image, so the
// engine raises its AS OF low-water mark to floor. Chains removed while
// holding only a commit-0 base leave the floor alone — the heap row is
// identical for every reader.
func (vs *VersionStore) GC(watermark uint64) (reclaimed int, floor uint64) {
	walked := 0
	for i := range vs.stripes {
		s := &vs.stripes[i]
		s.mu.Lock()
		walked += len(s.chains)
		for key, c := range s.chains {
			anchor := -1
			for j := len(c.vers) - 1; j >= 0; j-- {
				v := &c.vers[j]
				if !v.pending() && v.commit <= watermark {
					anchor = j
					break
				}
			}
			if anchor < 0 {
				continue
			}
			// The anchor becomes the base: move it and what is newer
			// down over the history, which lets go of its images.
			dropped := anchor
			if dropped > 0 {
				n := copy(c.vers, c.vers[anchor:])
				clear(c.vers[n:])
				c.vers = c.vers[:n]
				reclaimed += dropped
			}
			removed := false
			if len(c.vers) == 1 {
				delete(s.chains, key)
				reclaimed++
				removed = true
			}
			if (dropped > 0 || removed) && c.vers[0].commit > floor {
				floor = c.vers[0].commit
			}
		}
		s.mu.Unlock()
	}
	vs.m.Walked.Add(uint64(walked))
	if reclaimed > 0 {
		vs.m.Live.Add(int64(-reclaimed))
		vs.m.Reclaimed.Add(uint64(reclaimed))
	}
	return reclaimed, floor
}
