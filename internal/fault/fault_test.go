package fault

import (
	"bytes"
	"errors"
	"flag"
	"io"
	"os"
	"testing"
)

// The simulator tests are not seed-swept themselves, but the documented
// invocation `go test ./internal/fault/... -seeds N` passes the flag to
// every test binary under this tree, so it must be accepted here too.
var _ = flag.Int("seeds", 25, "accepted for symmetry with the simcrash sweep")
var _ = flag.Int("parseeds", 12, "accepted for symmetry with the simcrash parallel-apply sweep")

func TestSimFSBasicFileOps(t *testing.T) {
	fs := NewSimFS(1)
	if err := fs.MkdirAll("a/b", 0o755); err != nil {
		t.Fatal(err)
	}
	f, err := fs.Create("a/b/x.dat")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("hello ")); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("world")); err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("HELLO"), 0); err != nil {
		t.Fatal(err)
	}
	got, err := fs.ReadFile("a/b/x.dat")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "HELLO world" {
		t.Fatalf("content = %q", got)
	}
	// ReadAt short read yields io.EOF like *os.File.
	buf := make([]byte, 64)
	n, err := f.ReadAt(buf, 6)
	if n != 5 || err != io.EOF {
		t.Fatalf("ReadAt = %d, %v", n, err)
	}
	if string(buf[:n]) != "world" {
		t.Fatalf("ReadAt bytes = %q", buf[:n])
	}
	st, err := fs.Stat("a/b/x.dat")
	if err != nil || st.Size() != 11 {
		t.Fatalf("Stat = %v, %v", st, err)
	}
	if _, err := fs.Open("a/b/missing"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("Open missing = %v", err)
	}
	if _, err := fs.OpenFile("a/b/x.dat", os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644); !errors.Is(err, os.ErrExist) {
		t.Fatalf("O_EXCL on existing = %v", err)
	}
}

func TestSimFSAppendAndSeek(t *testing.T) {
	fs := NewSimFS(1)
	f, _ := fs.Create("log")
	f.Write([]byte("aaa"))
	f.Close()
	g, err := fs.OpenFile("log", os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	g.Write([]byte("bbb"))
	got, _ := fs.ReadFile("log")
	if string(got) != "aaabbb" {
		t.Fatalf("append content = %q", got)
	}
	h, _ := fs.OpenFile("log", os.O_RDWR, 0o644)
	if pos, err := h.Seek(-2, io.SeekEnd); err != nil || pos != 4 {
		t.Fatalf("Seek = %d, %v", pos, err)
	}
	b := make([]byte, 2)
	h.Read(b)
	if string(b) != "bb" {
		t.Fatalf("read after seek = %q", b)
	}
}

func TestSimFSReadDir(t *testing.T) {
	fs := NewSimFS(1)
	fs.MkdirAll("d/sub", 0o755)
	for _, name := range []string{"d/z.seg", "d/a.seg"} {
		f, _ := fs.Create(name)
		f.Close()
	}
	ents, err := fs.ReadDir("d")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
	}
	want := []string{"a.seg", "sub", "z.seg"}
	if len(names) != len(want) {
		t.Fatalf("ReadDir = %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("ReadDir = %v, want %v", names, want)
		}
	}
}

// Unsynced data may be lost at a crash; synced data never is.
func TestSimFSCrashDurability(t *testing.T) {
	fs := NewSimFS(42)
	f, _ := fs.Create("d.dat")
	f.Write([]byte("durable"))
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	f.Write([]byte(" volatile"))
	fs.Crash()
	if _, err := f.Write([]byte("x")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("write after crash = %v", err)
	}
	if _, err := fs.ReadFile("d.dat"); !errors.Is(err, ErrCrashed) {
		t.Fatalf("read after crash = %v", err)
	}
	fs2 := fs.Reboot()
	got, err := fs2.ReadFile("d.dat")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(got, []byte("durable")) {
		t.Fatalf("synced prefix lost: %q", got)
	}
	if len(got) > len("durable volatile") {
		t.Fatalf("post-crash content grew: %q", got)
	}
}

// A rename is metadata-durable, but the renamed file's content is only
// what was synced — the failure mode behind write-tmp-then-rename bugs.
func TestSimFSRenameWithoutSyncLosesContent(t *testing.T) {
	// Seed chosen so the crash drops the unsynced write (the journal
	// prefix kept is empty); assert on the possible outcomes instead of
	// relying on a specific rng draw.
	sawLoss := false
	for seed := int64(0); seed < 20; seed++ {
		fs := NewSimFS(seed)
		f, _ := fs.Create("ack.tmp")
		f.Write([]byte("12345678"))
		f.Close() // no sync
		if err := fs.Rename("ack.tmp", "ack"); err != nil {
			t.Fatal(err)
		}
		fs2 := fs.Reboot()
		if _, err := fs2.ReadFile("ack.tmp"); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("seed %d: tmp survived rename: %v", seed, err)
		}
		got, err := fs2.ReadFile("ack")
		if err != nil {
			t.Fatalf("seed %d: renamed file missing: %v", seed, err)
		}
		if len(got) != 8 {
			sawLoss = true
		}
	}
	if !sawLoss {
		t.Fatal("no seed lost unsynced content across rename; crash model too lenient")
	}
	// With a sync before the rename the content always survives.
	for seed := int64(0); seed < 20; seed++ {
		fs := NewSimFS(seed)
		f, _ := fs.Create("ack.tmp")
		f.Write([]byte("12345678"))
		if err := f.Sync(); err != nil {
			t.Fatal(err)
		}
		f.Close()
		fs.Rename("ack.tmp", "ack")
		fs2 := fs.Reboot()
		got, err := fs2.ReadFile("ack")
		if err != nil || string(got) != "12345678" {
			t.Fatalf("seed %d: synced rename lost data: %q, %v", seed, got, err)
		}
	}
}

// Crash resolution is a pure function of seed and history.
func TestSimFSCrashDeterminism(t *testing.T) {
	run := func() map[string]string {
		fs := NewSimFS(7)
		fs.SetScript(&Script{TornTail: func(string) bool { return true }})
		for _, name := range []string{"a", "b", "c"} {
			f, _ := fs.Create(name)
			f.Write(bytes.Repeat([]byte(name), 100))
			if name == "b" {
				f.Sync()
			}
			f.Write(bytes.Repeat([]byte("X"), 50))
			f.Close()
		}
		fs2 := fs.Reboot()
		out := map[string]string{}
		for _, name := range []string{"a", "b", "c"} {
			data, err := fs2.ReadFile(name)
			if err != nil {
				t.Fatal(err)
			}
			out[name] = string(data)
		}
		return out
	}
	first, second := run(), run()
	for k := range first {
		if first[k] != second[k] {
			t.Fatalf("file %q differs across identical runs:\n%q\n%q", k, first[k], second[k])
		}
	}
}

func TestSimFSScriptedCrashPanics(t *testing.T) {
	fs := NewSimFS(1)
	fs.SetScript(&Script{CrashOp: 3}) // create=1, write=2, write=3
	var ops int
	crashed := RunToCrash(func() {
		f, err := fs.Create("x")
		if err != nil {
			t.Fatal(err)
		}
		ops++
		for {
			if _, err := f.Write([]byte("abc")); err != nil {
				t.Fatal(err)
			}
			ops++
		}
	})
	if !crashed {
		t.Fatal("scripted crash did not fire")
	}
	if ops != 2 {
		t.Fatalf("crashed after %d successful calls, want 2", ops)
	}
	if !fs.Crashed() {
		t.Fatal("fs not marked crashed")
	}
}

func TestSimFSCrashBeforeVsAfter(t *testing.T) {
	// crash-after-write: the third op (second write) reaches the
	// volatile image, and a sync'd first write stays durable.
	for _, before := range []bool{true, false} {
		fs := NewSimFS(1)
		fs.SetScript(&Script{CrashOp: 4, CrashBefore: before})
		RunToCrash(func() {
			f, _ := fs.Create("x")  // op 1
			f.Write([]byte("one"))  // op 2
			f.Sync()                // op 3
			f.Write([]byte("-two")) // op 4: crash point
			t.Fatal("unreachable")
		})
		got, err := fs.Reboot().ReadFile("x")
		if err != nil {
			t.Fatal(err)
		}
		if before && string(got) != "one" {
			t.Fatalf("crash-before kept the doomed write: %q", got)
		}
		if !bytes.HasPrefix(got, []byte("one")) {
			t.Fatalf("synced data lost: %q", got)
		}
	}
}

func TestSimFSSyncErrorInjection(t *testing.T) {
	fs := NewSimFS(1)
	fs.SetScript(&Script{SyncErrOp: 3})
	f, _ := fs.Create("x")                             // op 1
	f.Write([]byte("a"))                               // op 2
	if err := f.Sync(); !errors.Is(err, ErrInjected) { // op 3
		t.Fatalf("Sync = %v, want injected error", err)
	}
	if err := f.Sync(); err != nil { // later syncs succeed
		t.Fatalf("second Sync = %v", err)
	}
	got, err := fs.Reboot().ReadFile("x")
	if err != nil || string(got) != "a" {
		t.Fatalf("content after successful sync = %q, %v", got, err)
	}
	// A failed sync alone must not make data durable: across seeds, at
	// least one crash drops the write that only saw the injected sync.
	sawLoss := false
	for seed := int64(0); seed < 20; seed++ {
		fs := NewSimFS(seed)
		fs.SetScript(&Script{SyncErrOp: 3})
		f, _ := fs.Create("x")
		f.Write([]byte("a"))
		if err := f.Sync(); !errors.Is(err, ErrInjected) {
			t.Fatalf("seed %d: Sync = %v", seed, err)
		}
		if got, _ := fs.Reboot().ReadFile("x"); string(got) != "a" {
			sawLoss = true
		}
	}
	if !sawLoss {
		t.Fatal("injected sync failure still made data durable on every seed")
	}
}

func TestSimFSDiskLimit(t *testing.T) {
	fs := NewSimFS(1)
	fs.SetScript(&Script{DiskLimit: 10})
	f, _ := fs.Create("x")
	if _, err := f.Write(bytes.Repeat([]byte("a"), 8)); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(bytes.Repeat([]byte("b"), 8)); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("over-limit write = %v, want ErrNoSpace", err)
	}
	// Overwriting in place needs no new space.
	if _, err := f.WriteAt([]byte("cc"), 0); err != nil {
		t.Fatalf("in-place rewrite = %v", err)
	}
}

func TestSimFSTornTailKeepsPrefixOnly(t *testing.T) {
	// With TornTail enabled, a lost write may survive partially but
	// always as a prefix at its own offset; bytes beyond the torn write
	// never appear.
	for seed := int64(0); seed < 50; seed++ {
		fs := NewSimFS(seed)
		fs.SetScript(&Script{TornTail: func(string) bool { return true }})
		f, _ := fs.Create("t")
		f.Write([]byte("AAAA"))
		f.Sync()
		f.Write([]byte("BBBB"))
		f.Write([]byte("CCCC"))
		got, err := fs.Reboot().ReadFile("t")
		if err != nil {
			t.Fatal(err)
		}
		want := "AAAABBBBCCCC"
		if len(got) > len(want) || string(got) != want[:len(got)] {
			t.Fatalf("seed %d: post-crash image %q is not a prefix of %q", seed, got, want)
		}
		if len(got) < 4 {
			t.Fatalf("seed %d: synced prefix truncated: %q", seed, got)
		}
	}
}

func TestSimFSWithoutTornTailWritesAreAtomic(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		fs := NewSimFS(seed)
		f, _ := fs.Create("page")
		f.Write(bytes.Repeat([]byte("P"), 64))
		f.Sync()
		f.WriteAt(bytes.Repeat([]byte("Q"), 64), 0)
		got, err := fs.Reboot().ReadFile("page")
		if err != nil {
			t.Fatal(err)
		}
		all := func(b []byte, c byte) bool {
			for _, x := range b {
				if x != c {
					return false
				}
			}
			return true
		}
		if !all(got, 'P') && !all(got, 'Q') {
			t.Fatalf("seed %d: page write torn without TornTail: %q", seed, got)
		}
	}
}

func TestOSFSPassthrough(t *testing.T) {
	dir := t.TempDir()
	fs := OrOS(nil)
	path := dir + "/x"
	if err := fs.WriteFile(path, []byte("hi"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := fs.ReadFile(path)
	if err != nil || string(got) != "hi" {
		t.Fatalf("ReadFile = %q, %v", got, err)
	}
	if err := fs.Rename(path, dir+"/y"); err != nil {
		t.Fatal(err)
	}
	ents, err := fs.ReadDir(dir)
	if err != nil || len(ents) != 1 || ents[0].Name() != "y" {
		t.Fatalf("ReadDir = %v, %v", ents, err)
	}
}
