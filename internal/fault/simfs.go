package fault

import (
	"errors"
	"fmt"
	"io"
	iofs "io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Injected errors and the crash signal.
var (
	// ErrCrashed is returned by every operation on a SimFS after its
	// simulated crash; nothing written past this point can exist.
	ErrCrashed = errors.New("fault: filesystem crashed")
	// ErrInjected marks a scripted I/O failure (fsync error).
	ErrInjected = errors.New("fault: injected I/O error")
	// ErrNoSpace models ENOSPC once the scripted disk limit is reached.
	ErrNoSpace = errors.New("fault: no space left on device (injected)")
)

// CrashPanic is the panic value thrown when a scripted crash point is
// reached — it models the process being killed at that instant. Use
// RunToCrash to convert it back into control flow.
type CrashPanic struct {
	// Op is the 1-based index of the I/O operation at which the crash
	// fired.
	Op uint64
}

func (c CrashPanic) String() string { return fmt.Sprintf("fault: simulated crash at op %d", c.Op) }

// RunToCrash invokes fn and reports whether it was terminated by a
// scripted SimFS crash. Any other panic is re-raised.
func RunToCrash(fn func()) (crashed bool) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(CrashPanic); ok {
				crashed = true
				return
			}
			panic(r)
		}
	}()
	fn()
	return false
}

// Script is one failpoint schedule. Operation indexes are 1-based
// counts of mutating filesystem operations (writes, syncs, truncates,
// creates, renames, removes); reads are free. A given seed's schedule
// is derived once and never consults wall-clock state, so the same
// script over the same workload yields the same outcome.
type Script struct {
	// CrashOp, when non-zero, kills the process at the CrashOp-th
	// mutating operation by panicking with CrashPanic.
	CrashOp uint64
	// CrashBefore selects the crash-before-write failpoint: the
	// operation at CrashOp never applies. When false the crash fires
	// just after the operation applied to the volatile state
	// (crash-after-write) — the operation is then subject to the same
	// unsynced-data loss as any other.
	CrashBefore bool
	// SyncErrOp, when non-zero, makes the SyncErrOp-th mutating
	// operation fail with ErrInjected if it is an fsync (no-op
	// otherwise). The sync does not take effect.
	SyncErrOp uint64
	// DiskLimit, when non-zero, bounds total volatile bytes across all
	// files; writes that would exceed it fail with ErrNoSpace.
	DiskLimit int64
	// TornTail reports whether a file may lose an unsynced write
	// partially (keeping a prefix of it) at crash time. Append-only
	// logs with per-record framing/CRCs (WAL segments, queue data, op
	// log) opt in; page files assume atomic page writes and stay out.
	TornTail func(path string) bool
}

// journal entry kinds.
type jkind uint8

const (
	jWrite jkind = iota
	jTrunc
)

type jentry struct {
	kind jkind
	off  int64 // write offset, or truncate size
	data []byte
}

// simNode is one file: a crash-durable image plus the volatile image
// the running process sees, with the unsynced operations in between
// recorded in order.
type simNode struct {
	durable  []byte
	volatile []byte
	journal  []jentry
}

// SimFS is an in-memory filesystem with power-loss crash semantics:
// data becomes durable only through Sync, while namespace operations
// (create, rename, remove, mkdir) are journaled immediately — the
// metadata-journaling behavior of ext4-class filesystems, which is
// exactly the regime where "rename before fsync" bugs live. At a crash
// each file keeps a seeded-random prefix of its unsynced operations
// (optionally tearing the first lost write), every further operation
// fails with ErrCrashed, and Reboot hands back the durable image as a
// fresh SimFS. SimFS is safe for concurrent use.
type SimFS struct {
	mu     sync.Mutex
	seed   int64
	rng    *rand.Rand // torn-write resolution only
	nodes  map[string]*simNode
	dirs   map[string]bool
	script *Script

	nops     uint64
	volBytes int64
	crashed  bool
}

// NewSimFS creates an empty simulated filesystem. The seed drives only
// crash-time resolution of unsynced data (which prefix survives, where
// writes tear); failpoint placement lives in the Script.
func NewSimFS(seed int64) *SimFS {
	return &SimFS{
		seed:  seed,
		rng:   rand.New(rand.NewSource(seed)),
		nodes: make(map[string]*simNode),
		dirs:  map[string]bool{".": true, "/": true},
	}
}

// SetScript installs (or clears, with nil) the failpoint schedule.
func (s *SimFS) SetScript(sc *Script) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.script = sc
}

// Ops returns the number of mutating operations performed so far.
func (s *SimFS) Ops() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.nops
}

// Crashed reports whether the filesystem has crashed.
func (s *SimFS) Crashed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.crashed
}

// Crash simulates power loss now: unsynced data is resolved per the
// seeded model and every subsequent operation fails with ErrCrashed.
func (s *SimFS) Crash() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.crashLocked()
}

func (s *SimFS) crashLocked() {
	if s.crashed {
		return
	}
	s.crashed = true
	// Resolve each file's unsynced journal: keep a random prefix of the
	// entries (the OS may have flushed any amount), optionally tearing
	// the first lost write. Iterate in sorted path order so the rng
	// consumption — and therefore the post-crash image — is a pure
	// function of the seed and the I/O history.
	paths := make([]string, 0, len(s.nodes))
	for p := range s.nodes {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		n := s.nodes[p]
		if len(n.journal) == 0 {
			n.volatile = append([]byte(nil), n.durable...)
			continue
		}
		keep := s.rng.Intn(len(n.journal) + 1)
		for i := 0; i < keep; i++ {
			applyEntry(&n.durable, n.journal[i])
		}
		if keep < len(n.journal) {
			e := n.journal[keep]
			if e.kind == jWrite && len(e.data) > 0 && s.script != nil &&
				s.script.TornTail != nil && s.script.TornTail(p) {
				cut := s.rng.Intn(len(e.data))
				applyEntry(&n.durable, jentry{kind: jWrite, off: e.off, data: e.data[:cut]})
			}
		}
		n.journal = nil
		n.volatile = append([]byte(nil), n.durable...)
	}
}

func applyEntry(img *[]byte, e jentry) {
	switch e.kind {
	case jTrunc:
		*img = resize(*img, e.off)
	case jWrite:
		end := e.off + int64(len(e.data))
		if int64(len(*img)) < end {
			*img = resize(*img, end)
		}
		copy((*img)[e.off:end], e.data)
	}
}

func resize(b []byte, size int64) []byte {
	if int64(len(b)) >= size {
		return b[:size]
	}
	out := make([]byte, size)
	copy(out, b)
	return out
}

// Reboot returns a fresh filesystem holding the crash-durable image —
// what a restarted process finds on disk. It may be called after Crash
// or a scripted CrashPanic; calling it on a live filesystem crashes it
// first. The reboot carries no script.
func (s *SimFS) Reboot() *SimFS {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.crashLocked()
	out := NewSimFS(s.seed + 1)
	for p, n := range s.nodes {
		out.nodes[p] = &simNode{
			durable:  append([]byte(nil), n.durable...),
			volatile: append([]byte(nil), n.durable...),
		}
		out.volBytes += int64(len(n.durable))
	}
	for d := range s.dirs {
		out.dirs[d] = true
	}
	return out
}

// step accounts one mutating operation and fires scripted failpoints.
// Callers hold s.mu; apply mutates volatile state. isSync marks fsync
// operations for SyncErrOp. The returned error is ErrInjected for a
// scripted sync failure; a scripted crash panics with CrashPanic (the
// deferred unlocks up the stack release every mutex on the way out).
func (s *SimFS) step(isSync bool, apply func()) error {
	s.nops++
	n := s.nops
	if s.script != nil && s.script.CrashOp == n {
		if !s.script.CrashBefore {
			apply()
		}
		s.crashLocked()
		panic(CrashPanic{Op: n})
	}
	if s.script != nil && isSync && s.script.SyncErrOp == n {
		return &os.PathError{Op: "sync", Path: "", Err: ErrInjected}
	}
	apply()
	return nil
}

func clean(p string) string { return filepath.Clean(p) }

func (s *SimFS) parentExistsLocked(p string) bool {
	d := filepath.Dir(p)
	return s.dirs[d]
}

// OpenFile implements FS.
func (s *SimFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.crashed {
		return nil, ErrCrashed
	}
	p := clean(name)
	n, exists := s.nodes[p]
	if exists && flag&os.O_EXCL != 0 {
		return nil, &os.PathError{Op: "open", Path: name, Err: os.ErrExist}
	}
	if !exists {
		if flag&os.O_CREATE == 0 {
			return nil, &os.PathError{Op: "open", Path: name, Err: os.ErrNotExist}
		}
		if !s.parentExistsLocked(p) {
			return nil, &os.PathError{Op: "open", Path: name, Err: os.ErrNotExist}
		}
		n = &simNode{}
		if err := s.step(false, func() { s.nodes[p] = n }); err != nil {
			return nil, err
		}
		if _, ok := s.nodes[p]; !ok {
			// crash-before-write dropped the creation; unreachable in
			// practice because step panics on crash, but keep the map
			// authoritative.
			return nil, ErrCrashed
		}
	} else if flag&os.O_TRUNC != 0 {
		if err := s.step(false, func() {
			s.volBytes -= int64(len(n.volatile))
			n.volatile = nil
			n.journal = append(n.journal, jentry{kind: jTrunc, off: 0})
		}); err != nil {
			return nil, err
		}
	}
	return &simFile{fs: s, node: n, name: p, append_: flag&os.O_APPEND != 0}, nil
}

// Open implements FS.
func (s *SimFS) Open(name string) (File, error) { return s.OpenFile(name, os.O_RDONLY, 0) }

// Create implements FS.
func (s *SimFS) Create(name string) (File, error) {
	return s.OpenFile(name, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
}

// ReadFile implements FS.
func (s *SimFS) ReadFile(name string) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.crashed {
		return nil, ErrCrashed
	}
	n, ok := s.nodes[clean(name)]
	if !ok {
		return nil, &os.PathError{Op: "open", Path: name, Err: os.ErrNotExist}
	}
	return append([]byte(nil), n.volatile...), nil
}

// WriteFile implements FS. Like os.WriteFile it does NOT sync: the
// written bytes are volatile until a Sync or a crash-resolution keeps
// them — the exact hazard the queue-ack and catalog fixes close.
func (s *SimFS) WriteFile(name string, data []byte, perm os.FileMode) error {
	f, err := s.OpenFile(name, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, perm)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Rename implements FS. Namespace changes are metadata-journaled: the
// rename itself survives a crash, but the file's content is still only
// its durable image — renaming an unsynced file can durably install an
// empty or torn file.
func (s *SimFS) Rename(oldpath, newpath string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.crashed {
		return ErrCrashed
	}
	op, np := clean(oldpath), clean(newpath)
	n, ok := s.nodes[op]
	if !ok {
		return &os.PathError{Op: "rename", Path: oldpath, Err: os.ErrNotExist}
	}
	if !s.parentExistsLocked(np) {
		return &os.PathError{Op: "rename", Path: newpath, Err: os.ErrNotExist}
	}
	return s.step(false, func() {
		if old, ok := s.nodes[np]; ok {
			s.volBytes -= int64(len(old.volatile))
		}
		delete(s.nodes, op)
		s.nodes[np] = n
	})
}

// Remove implements FS (metadata-journaled, like Rename).
func (s *SimFS) Remove(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.crashed {
		return ErrCrashed
	}
	p := clean(name)
	n, ok := s.nodes[p]
	if !ok {
		if s.dirs[p] {
			return s.step(false, func() { delete(s.dirs, p) })
		}
		return &os.PathError{Op: "remove", Path: name, Err: os.ErrNotExist}
	}
	return s.step(false, func() {
		s.volBytes -= int64(len(n.volatile))
		delete(s.nodes, p)
	})
}

// Truncate implements FS.
func (s *SimFS) Truncate(name string, size int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.crashed {
		return ErrCrashed
	}
	n, ok := s.nodes[clean(name)]
	if !ok {
		return &os.PathError{Op: "truncate", Path: name, Err: os.ErrNotExist}
	}
	return s.step(false, func() {
		s.volBytes += size - int64(len(n.volatile))
		n.volatile = resize(n.volatile, size)
		n.journal = append(n.journal, jentry{kind: jTrunc, off: size})
	})
}

// MkdirAll implements FS. Directory creation is metadata-journaled and
// free (not a counted op): failpoints on mkdir add nothing the create
// and rename points don't already cover.
func (s *SimFS) MkdirAll(path string, perm os.FileMode) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.crashed {
		return ErrCrashed
	}
	p := clean(path)
	for p != "." && p != "/" {
		s.dirs[p] = true
		p = filepath.Dir(p)
	}
	return nil
}

// ReadDir implements FS.
func (s *SimFS) ReadDir(name string) ([]os.DirEntry, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.crashed {
		return nil, ErrCrashed
	}
	p := clean(name)
	if !s.dirs[p] {
		return nil, &os.PathError{Op: "open", Path: name, Err: os.ErrNotExist}
	}
	seen := map[string]bool{}
	var out []os.DirEntry
	add := func(child string, dir bool) {
		rel, err := filepath.Rel(p, child)
		if err != nil || rel == "." {
			return
		}
		first := rel
		if j := indexSep(rel); j >= 0 {
			first = rel[:j]
			dir = true
		}
		if !seen[first] {
			seen[first] = true
			out = append(out, simDirEntry{name: first, dir: dir})
		}
	}
	for f := range s.nodes {
		if within(p, f) {
			add(f, false)
		}
	}
	for d := range s.dirs {
		if d != p && within(p, d) {
			add(d, true)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name() < out[j].Name() })
	return out, nil
}

func within(dir, p string) bool {
	rel, err := filepath.Rel(dir, p)
	return err == nil && rel != ".." && !(len(rel) >= 3 && rel[:3] == "../")
}

func indexSep(p string) int {
	for i := 0; i < len(p); i++ {
		if os.IsPathSeparator(p[i]) {
			return i
		}
	}
	return -1
}

// Stat implements FS.
func (s *SimFS) Stat(name string) (os.FileInfo, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.crashed {
		return nil, ErrCrashed
	}
	p := clean(name)
	if n, ok := s.nodes[p]; ok {
		return simFileInfo{name: filepath.Base(p), size: int64(len(n.volatile))}, nil
	}
	if s.dirs[p] {
		return simFileInfo{name: filepath.Base(p), dir: true}, nil
	}
	return nil, &os.PathError{Op: "stat", Path: name, Err: os.ErrNotExist}
}

// simFile is a handle on a SimFS node.
type simFile struct {
	fs      *SimFS
	node    *simNode
	name    string
	append_ bool
	off     int64
}

func (f *simFile) Name() string { return f.name }

func (f *simFile) writeAtLocked(b []byte, off int64) (int, error) {
	s := f.fs
	end := off + int64(len(b))
	growth := end - int64(len(f.node.volatile))
	if growth < 0 {
		growth = 0
	}
	if s.script != nil && s.script.DiskLimit > 0 && s.volBytes+growth > s.script.DiskLimit {
		s.nops++ // the failed attempt still counts as an operation
		return 0, &os.PathError{Op: "write", Path: f.name, Err: ErrNoSpace}
	}
	err := s.step(false, func() {
		s.volBytes += growth
		data := append([]byte(nil), b...)
		applyEntry(&f.node.volatile, jentry{kind: jWrite, off: off, data: data})
		f.node.journal = append(f.node.journal, jentry{kind: jWrite, off: off, data: data})
	})
	if err != nil {
		return 0, err
	}
	return len(b), nil
}

func (f *simFile) Write(b []byte) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if f.fs.crashed {
		return 0, ErrCrashed
	}
	off := f.off
	if f.append_ {
		off = int64(len(f.node.volatile))
	}
	n, err := f.writeAtLocked(b, off)
	if err != nil {
		return n, err
	}
	f.off = off + int64(n)
	return n, nil
}

func (f *simFile) WriteAt(b []byte, off int64) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if f.fs.crashed {
		return 0, ErrCrashed
	}
	return f.writeAtLocked(b, off)
}

func (f *simFile) Read(b []byte) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if f.fs.crashed {
		return 0, ErrCrashed
	}
	if f.off >= int64(len(f.node.volatile)) {
		return 0, io.EOF
	}
	n := copy(b, f.node.volatile[f.off:])
	f.off += int64(n)
	return n, nil
}

func (f *simFile) ReadAt(b []byte, off int64) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if f.fs.crashed {
		return 0, ErrCrashed
	}
	if off >= int64(len(f.node.volatile)) {
		return 0, io.EOF
	}
	n := copy(b, f.node.volatile[off:])
	if n < len(b) {
		return n, io.EOF
	}
	return n, nil
}

func (f *simFile) Seek(offset int64, whence int) (int64, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if f.fs.crashed {
		return 0, ErrCrashed
	}
	switch whence {
	case io.SeekStart:
		f.off = offset
	case io.SeekCurrent:
		f.off += offset
	case io.SeekEnd:
		f.off = int64(len(f.node.volatile)) + offset
	default:
		return 0, fmt.Errorf("fault: bad whence %d", whence)
	}
	if f.off < 0 {
		return 0, fmt.Errorf("fault: negative seek")
	}
	return f.off, nil
}

// Sync makes the file's volatile image crash-durable.
func (f *simFile) Sync() error {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if f.fs.crashed {
		return ErrCrashed
	}
	return f.fs.step(true, func() {
		f.node.durable = append([]byte(nil), f.node.volatile...)
		f.node.journal = nil
	})
}

func (f *simFile) Truncate(size int64) error {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if f.fs.crashed {
		return ErrCrashed
	}
	return f.fs.step(false, func() {
		f.fs.volBytes += size - int64(len(f.node.volatile))
		f.node.volatile = resize(f.node.volatile, size)
		f.node.journal = append(f.node.journal, jentry{kind: jTrunc, off: size})
	})
}

func (f *simFile) Stat() (os.FileInfo, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if f.fs.crashed {
		return nil, ErrCrashed
	}
	return simFileInfo{name: filepath.Base(f.name), size: int64(len(f.node.volatile))}, nil
}

// Close releases the handle. Like the OS, it does not sync.
func (f *simFile) Close() error { return nil }

type simFileInfo struct {
	name string
	size int64
	dir  bool
}

func (i simFileInfo) Name() string { return i.name }
func (i simFileInfo) Size() int64  { return i.size }
func (i simFileInfo) Mode() iofs.FileMode {
	if i.dir {
		return iofs.ModeDir | 0o755
	}
	return 0o644
}
func (i simFileInfo) ModTime() time.Time { return time.Time{} }
func (i simFileInfo) IsDir() bool        { return i.dir }
func (i simFileInfo) Sys() any           { return nil }

type simDirEntry struct {
	name string
	dir  bool
}

func (e simDirEntry) Name() string                 { return e.name }
func (e simDirEntry) IsDir() bool                  { return e.dir }
func (e simDirEntry) Type() iofs.FileMode          { return simFileInfo{dir: e.dir}.Mode().Type() }
func (e simDirEntry) Info() (iofs.FileInfo, error) { return simFileInfo{name: e.name, dir: e.dir}, nil }

// CrashPoint marks a place inside an operation where a power loss may
// strike although no file is touched there: between a heap page's
// writes and their log records, or between two pages of one statement.
// On a SimFS it counts as one mutating operation, so a crash schedule
// samples it like any write; on any other FS it does nothing.
func CrashPoint(fsys FS) {
	if s, ok := fsys.(*SimFS); ok {
		s.mu.Lock()
		defer s.mu.Unlock()
		if !s.crashed {
			s.step(false, func() {})
		}
	}
}
