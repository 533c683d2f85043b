// Package fault provides the deterministic fault-injection layer under
// every file-I/O seam of the pipeline. Components that persist state
// (storage.DiskManager, wal.Writer, transport.Queue, the opdelta file
// log, extract file sinks, the engine catalog) perform all file
// operations through a fault.FS. In production that is the passthrough
// OS implementation; under test it is a SimFS — an in-memory filesystem
// with power-loss semantics, seedable torn-write resolution, and
// scripted failpoints (crash-before-write, crash-after-write, fsync
// error, ENOSPC). The simcrash subpackage builds a randomized
// crash-consistency harness on top of it.
package fault

import (
	"io"
	"os"
)

// File is the subset of *os.File the pipeline's persistence layers use.
type File interface {
	io.Reader
	io.Writer
	io.ReaderAt
	io.WriterAt
	io.Seeker
	io.Closer
	// Sync flushes the file's content to stable storage. In a SimFS
	// this is the only operation that makes prior writes crash-durable.
	Sync() error
	// Truncate changes the file's size.
	Truncate(size int64) error
	// Stat returns file metadata (only Size is load-bearing here).
	Stat() (os.FileInfo, error)
	// Name returns the path the file was opened with.
	Name() string
}

// FS is the filesystem seam. It mirrors the os package functions the
// persistence layers call; every implementation must preserve os error
// conventions (errors.Is(err, os.ErrNotExist), os.ErrExist, io.EOF from
// short ReadAt) because callers branch on them.
type FS interface {
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	Open(name string) (File, error)
	Create(name string) (File, error)
	ReadFile(name string) ([]byte, error)
	WriteFile(name string, data []byte, perm os.FileMode) error
	Rename(oldpath, newpath string) error
	Remove(name string) error
	Truncate(name string, size int64) error
	MkdirAll(path string, perm os.FileMode) error
	ReadDir(name string) ([]os.DirEntry, error)
	Stat(name string) (os.FileInfo, error)
}

// OS is the passthrough implementation backed by the real filesystem.
var OS FS = osFS{}

// OrOS returns fsys, or the real filesystem when fsys is nil. Every
// FS-taking constructor funnels through this so a zero Options value
// keeps today's behavior.
func OrOS(fsys FS) FS {
	if fsys == nil {
		return OS
	}
	return fsys
}

type osFS struct{}

func (osFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	return os.OpenFile(name, flag, perm)
}
func (osFS) Open(name string) (File, error)       { return os.Open(name) }
func (osFS) Create(name string) (File, error)     { return os.Create(name) }
func (osFS) ReadFile(name string) ([]byte, error) { return os.ReadFile(name) }
func (osFS) WriteFile(name string, data []byte, perm os.FileMode) error {
	return os.WriteFile(name, data, perm)
}
func (osFS) Rename(oldpath, newpath string) error         { return os.Rename(oldpath, newpath) }
func (osFS) Remove(name string) error                     { return os.Remove(name) }
func (osFS) Truncate(name string, size int64) error       { return os.Truncate(name, size) }
func (osFS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }
func (osFS) ReadDir(name string) ([]os.DirEntry, error)   { return os.ReadDir(name) }
func (osFS) Stat(name string) (os.FileInfo, error)        { return os.Stat(name) }
