package engine

import (
	"runtime"
	"strings"
	"testing"
	"time"
	"unsafe"
)

// TestStringKeyDoesNotPinItsStatement: the primary-key index keeps a
// VARCHAR key as long as its row lives, so the key must be a string of
// its own, not a piece of the INSERT's text. A statement that carries a
// payload beside its key is freed once it has run, and the row is still
// found by its key.
func TestStringKeyDoesNotPinItsStatement(t *testing.T) {
	db := openTestDB(t, Options{})
	if _, err := db.Exec(nil, "CREATE TABLE docs (name VARCHAR NOT NULL, body VARCHAR) PRIMARY KEY (name)"); err != nil {
		t.Fatal(err)
	}
	freed := make(chan struct{})
	func() {
		// The statement's text lives in an array of its own, so a
		// finalizer tells when nothing references it any more.
		buf := new([4096]byte)
		src := append(buf[:0], "INSERT INTO docs (name, body) VALUES ('k1', '"...)
		src = append(src, strings.Repeat("x", 1000)...)
		src = append(src, "')"...)
		if &src[0] != &buf[0] {
			t.Fatal("the statement outgrew its array")
		}
		runtime.SetFinalizer(buf, func(*[4096]byte) { close(freed) })
		if _, err := db.Exec(nil, unsafe.String(&src[0], len(src))); err != nil {
			t.Fatal(err)
		}
	}()
	for try := 0; ; try++ {
		runtime.GC()
		select {
		case <-freed:
			_, rows, err := db.Query(nil, "SELECT body FROM docs WHERE name = 'k1'")
			if err != nil || len(rows) != 1 || len(rows[0][0].Str()) != 1000 {
				t.Fatalf("the row by its key: %.40v, %v", rows, err)
			}
			return
		case <-time.After(10 * time.Millisecond):
		}
		if try == 100 {
			t.Fatal("the INSERT's text is still reachable after it ran: a value keeps a piece of it")
		}
	}
}
