package engine

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"opdelta/internal/catalog"
	"opdelta/internal/obs"
	"opdelta/internal/storage"
)

// keyGen draws one random key of a kind; i makes composite keys unique.
type keyGen func(r *rand.Rand, i int) catalog.Value

func randString(r *rand.Rand) string {
	b := make([]byte, r.Intn(10))
	for i := range b {
		b[i] = "\x00ab\xffz"[r.Intn(5)]
	}
	return string(b)
}

var bulkKeyKinds = []struct {
	name string
	gen  keyGen
}{
	{"int64", func(r *rand.Rand, _ int) catalog.Value { return catalog.NewInt(r.Int63n(1<<20) - 1<<19) }},
	{"string", func(r *rand.Rand, _ int) catalog.Value { return catalog.NewString(randString(r)) }},
	{"bytes", func(r *rand.Rand, _ int) catalog.Value { return catalog.NewBytes([]byte(randString(r))) }},
	{"secondary", func(r *rand.Rand, i int) catalog.Value {
		// A composite (value, RID) key as the secondary indexes keep,
		// over a column with few distinct values and NULLs.
		var v catalog.Value
		switch r.Intn(4) {
		case 0:
			v = catalog.NewNull(catalog.TypeString)
		case 1:
			v = catalog.NewString(randString(r) + "\x00")
		default:
			v = catalog.NewString(fmt.Sprint(r.Intn(20)))
		}
		key, err := indexEntryKey(v, storage.RID{Page: storage.PageID(i / 300), Slot: uint16(i % 300)})
		if err != nil {
			panic(err)
		}
		return key
	}},
}

// distinctKeys draws n distinct keys in random order, with their RIDs.
func distinctKeys(r *rand.Rand, gen keyGen, n int, seen map[string]bool, next *int) indexRun {
	run := newIndexRun(n)
	for len(run.keys) < n {
		k := gen(r, *next)
		if seen[k.String()+k.Type().String()] {
			continue
		}
		seen[k.String()+k.Type().String()] = true
		run.add(k, storage.RID{Page: storage.PageID(*next), Slot: uint16(*next % 7)})
		*next++
	}
	return run
}

type bulkEntry struct {
	key catalog.Value
	rid storage.RID
}

func rangeOf(b *btree, lo, hi *catalog.Value, stop int) []bulkEntry {
	var out []bulkEntry
	b.Range(lo, hi, func(k catalog.Value, rid storage.RID) bool {
		out = append(out, bulkEntry{k, rid})
		return len(out) != stop
	})
	return out
}

func descendOf(b *btree, stop int) []bulkEntry {
	var out []bulkEntry
	b.Descend(func(k catalog.Value, rid storage.RID) bool {
		out = append(out, bulkEntry{k, rid})
		return len(out) != stop
	})
	return out
}

// checkBulkShape checks the invariants of a tree bulk-built from n
// keys: keys ascend across the leaves, every separator is the first key
// of its right subtree, all leaves sit at one depth, size is n, no node
// but the root is less than half full, and there are ⌈n/btreeOrder⌉
// leaves.
func checkBulkShape(t *testing.T, b *btree, n int) {
	t.Helper()
	leaves, count := 0, 0
	var prev *catalog.Value
	var walk func(nd node, depth int) catalog.Value
	walk = func(nd node, depth int) catalog.Value {
		root := depth == 1
		switch x := nd.(type) {
		case *leaf:
			leaves++
			if depth != b.height {
				t.Fatalf("leaf at depth %d, height %d", depth, b.height)
			}
			if len(x.keys) != len(x.rids) || len(x.keys) > btreeOrder || (!root && len(x.keys) < btreeOrder/2) {
				t.Fatalf("leaf holds %d keys, %d rids", len(x.keys), len(x.rids))
			}
			for i := range x.keys {
				if prev != nil && mustCompare(prev, &x.keys[i]) >= 0 {
					t.Fatalf("keys out of order: %v then %v", *prev, x.keys[i])
				}
				prev = &x.keys[i]
			}
			count += len(x.keys)
			if len(x.keys) == 0 {
				return catalog.Value{}
			}
			return x.keys[0]
		case *inner:
			if len(x.children) != len(x.keys)+1 || len(x.keys) > btreeOrder || (!root && len(x.keys) < btreeOrder/2) {
				t.Fatalf("inner node holds %d keys, %d children", len(x.keys), len(x.children))
			}
			first := walk(x.children[0], depth+1)
			for i := 1; i < len(x.children); i++ {
				if f := walk(x.children[i], depth+1); mustCompare(&x.keys[i-1], &f) != 0 {
					t.Fatalf("separator %v, first key of its right subtree %v", x.keys[i-1], f)
				}
			}
			return first
		}
		panic("unknown node")
	}
	walk(b.root, 1)
	if count != n || b.size != n {
		t.Fatalf("tree holds %d entries, size %d, want %d", count, b.size, n)
	}
	if want := max(1, (n+btreeOrder-1)/btreeOrder); leaves != want {
		t.Fatalf("%d leaves for %d keys, want %d", leaves, n, want)
	}
}

// TestBulkBuildMatchesInsertBuild builds trees bottom-up from random
// key sets of every key kind and checks each against a tree built by
// inserting the same keys one at a time: lookups, ranges with random and
// open bounds, descents, and a random run of inserts and deletes
// afterwards must all agree.
func TestBulkBuildMatchesInsertBuild(t *testing.T) {
	sizes := []int{0, 1, 2, 31, 32, 33, 63, 64, 65, 95, 96, 97, 128, 129,
		64 * 65, 64*65 + 1, 64*65 + 31, 64*65*2 + 5}
	for _, kind := range bulkKeyKinds {
		for si, n := range append(sizes, 500+rand.New(rand.NewSource(int64(len(kind.name)))).Intn(5000)) {
			r := rand.New(rand.NewSource(int64(si*31 + len(kind.name))))
			seen, next := map[string]bool{}, 0
			run := distinctKeys(r, kind.gen, n, seen, &next)
			ref := newBtree()
			for i := range run.keys {
				if err := ref.Insert(run.keys[i], run.rids[i]); err != nil {
					t.Fatal(err)
				}
			}
			r.Shuffle(n, run.Swap)
			if dup := run.order(); dup >= 0 {
				t.Fatalf("%s/%d: distinct keys reported duplicate at %d", kind.name, n, dup)
			}
			probes := append([]catalog.Value(nil), run.keys...)
			extra := distinctKeys(r, kind.gen, 50, seen, &next)
			probes = append(probes, extra.keys...)
			bulk := buildBtree(run)
			checkBulkShape(t, bulk, n)

			for _, k := range probes {
				rid, ok := bulk.Get(k)
				wrid, wok := ref.Get(k)
				if rid != wrid || ok != wok {
					t.Fatalf("%s/%d: Get(%v) = %v %v, want %v %v", kind.name, n, k, rid, ok, wrid, wok)
				}
			}
			bound := func() *catalog.Value {
				if r.Intn(4) == 0 {
					return nil
				}
				v := probes[r.Intn(len(probes))]
				return &v
			}
			for i := 0; i < 40; i++ {
				lo, hi, stop := bound(), bound(), r.Intn(3)*r.Intn(100)
				if got, want := rangeOf(bulk, lo, hi, stop), rangeOf(ref, lo, hi, stop); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s/%d: Range(%v, %v, stop %d) = %d entries, want %d", kind.name, n, lo, hi, stop, len(got), len(want))
				}
			}
			for _, stop := range []int{0, 1, 70} {
				if got, want := descendOf(bulk, stop), descendOf(ref, stop); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s/%d: Descend(stop %d) differs", kind.name, n, stop)
				}
			}

			// Online maintenance after the build.
			fresh := distinctKeys(r, kind.gen, n/2+10, seen, &next)
			for i := 0; i < n+20; i++ {
				var k catalog.Value
				rid := storage.RID{Page: storage.PageID(r.Intn(1000))}
				if r.Intn(2) == 0 && len(fresh.keys) > 0 {
					k, fresh.keys = fresh.keys[0], fresh.keys[1:]
				} else {
					k = probes[r.Intn(len(probes))]
				}
				if r.Intn(3) == 0 {
					if got, want := bulk.Delete(k), ref.Delete(k); got != want {
						t.Fatalf("%s/%d: Delete(%v) = %v, want %v", kind.name, n, k, got, want)
					}
					continue
				}
				probes = append(probes, k)
				if got, want := bulk.Insert(k, rid), ref.Insert(k, rid); (got == nil) != (want == nil) {
					t.Fatalf("%s/%d: Insert(%v) = %v, want %v", kind.name, n, k, got, want)
				}
			}
			if bulk.Len() != ref.Len() {
				t.Fatalf("%s/%d: Len %d after churn, want %d", kind.name, n, bulk.Len(), ref.Len())
			}
			if got, want := rangeOf(bulk, nil, nil, 0), rangeOf(ref, nil, nil, 0); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s/%d: entries differ after churn", kind.name, n)
			}
			for _, k := range probes {
				rid, ok := bulk.Get(k)
				wrid, wok := ref.Get(k)
				if rid != wrid || ok != wok {
					t.Fatalf("%s/%d: Get(%v) after churn = %v %v, want %v %v", kind.name, n, k, rid, ok, wrid, wok)
				}
			}
		}
	}
}

// indexMatchesHeap checks that the table's primary-key index and every
// secondary index hold exactly one entry per live row, and returns
// whether the heap was in key order.
func indexMatchesHeap(t *testing.T, tbl *Table) bool {
	t.Helper()
	var pk []bulkEntry
	sec := make([][]catalog.Value, len(tbl.sec))
	err := tbl.heap.Scan(func(rid storage.RID, rec []byte) (bool, error) {
		tup, err := catalog.DecodeTuple(tbl.Schema, rec)
		if err != nil {
			return false, err
		}
		pk = append(pk, bulkEntry{tup[tbl.PKCol], rid})
		for i, si := range tbl.sec {
			key, err := indexEntryKey(tup[si.col], rid)
			if err != nil {
				return false, err
			}
			sec[i] = append(sec[i], key)
		}
		return true, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	inKeyOrder := sort.SliceIsSorted(pk, func(i, j int) bool { return mustCompare(&pk[i].key, &pk[j].key) < 0 })
	sort.Slice(pk, func(i, j int) bool { return mustCompare(&pk[i].key, &pk[j].key) < 0 })
	tbl.idxMu.RLock()
	defer tbl.idxMu.RUnlock()
	if got := rangeOf(tbl.pk, nil, nil, 0); !reflect.DeepEqual(got, pk) {
		t.Fatalf("%s: primary-key index holds %d entries, heap %d rows, or they differ", tbl.Name, len(got), len(pk))
	}
	for i, si := range tbl.sec {
		want := sec[i]
		sort.Slice(want, func(a, b int) bool { return mustCompare(&want[a], &want[b]) < 0 })
		var got []catalog.Value
		si.tree.Range(nil, nil, func(k catalog.Value, rid storage.RID) bool {
			if rid != decodeEntryRID(k) {
				t.Errorf("entry %v maps to %v", k, rid)
			}
			got = append(got, k)
			return true
		})
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: index on %s holds %d entries, heap %d rows, or they differ",
				tbl.Name, tbl.Schema.Column(si.col).Name, len(got), len(want))
		}
	}
	return inKeyOrder
}

// TestRebuildSortsAHeapOutOfKeyOrder rebuilds the indexes of a heap
// whose order is not key order — rows inserted in random key order,
// some deleted, some relocated by updates that outgrow their page — so
// the build sorts its runs, by RebuildIndex and by reopening.
func TestRebuildSortsAHeapOutOfKeyOrder(t *testing.T) {
	dir := t.TempDir()
	clock := newClock()
	db, err := Open(dir, Options{Now: clock.Now})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { db.Close() }()
	if _, err := db.Exec(nil, `CREATE TABLE parts (part_id BIGINT NOT NULL, status VARCHAR, qty BIGINT,
		last_modified TIMESTAMP) PRIMARY KEY (part_id) TIMESTAMP COLUMN (last_modified)`); err != nil {
		t.Fatal(err)
	}
	for _, col := range []string{"status", "qty"} {
		if err := db.CreateSecondaryIndex("parts", col); err != nil {
			t.Fatal(err)
		}
	}
	r := rand.New(rand.NewSource(7))
	ids := r.Perm(3000)
	for lo := 0; lo < len(ids); lo += 100 {
		var vals []string
		for _, id := range ids[lo : lo+100] {
			status := fmt.Sprintf("'%s'", strings.Repeat("s", r.Intn(40)))
			if id%9 == 0 {
				status = "NULL"
			}
			vals = append(vals, fmt.Sprintf("(%d, %s, %d)", id, status, r.Intn(50)))
		}
		if _, err := db.Exec(nil, "INSERT INTO parts (part_id, status, qty) VALUES "+strings.Join(vals, ", ")); err != nil {
			t.Fatal(err)
		}
	}
	tbl, _ := db.Table("parts")
	before, _ := tbl.LookupPK(catalog.NewInt(10))
	for _, stmt := range []string{
		`DELETE FROM parts WHERE part_id BETWEEN 500 AND 899`,
		`DELETE FROM parts WHERE qty = 7`,
		`UPDATE parts SET status = '` + strings.Repeat("x", 3000) + `' WHERE part_id BETWEEN 0 AND 40`,
		`UPDATE parts SET qty = qty + 100 WHERE part_id BETWEEN 2000 AND 2300`,
	} {
		if _, err := db.Exec(nil, stmt); err != nil {
			t.Fatal(err)
		}
	}
	if after, _ := tbl.LookupPK(catalog.NewInt(10)); after == before {
		t.Fatalf("the growing update left row 10 at %v: no relocation to rebuild over", before)
	}
	if indexMatchesHeap(t, tbl) {
		t.Fatal("heap is in key order: the sort path is not exercised")
	}
	if err := tbl.RebuildIndex(); err != nil {
		t.Fatal(err)
	}
	indexMatchesHeap(t, tbl)
	checkBulkShape(t, tbl.pk, tbl.pk.Len())
	for _, si := range tbl.sec {
		checkBulkShape(t, si.tree, si.tree.Len())
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if db, err = Open(dir, Options{Now: clock.Now}); err != nil {
		t.Fatal(err)
	}
	tbl, _ = db.Table("parts")
	indexMatchesHeap(t, tbl)
	checkBulkShape(t, tbl.pk, tbl.pk.Len())
	if n := mustCount(t, db, "parts", "qty >= 100"); n == 0 {
		t.Fatal("no rows through the rebuilt qty index")
	}
}

// TestRebuiltKeysOutliveTheirPages rebuilds the indexes of a table
// keyed by strings, with a secondary index over bytes, then rewrites
// its pages — deletes, growing updates that compact them, inserts — so
// a key the build left aliasing a page buffer would change under the
// tree.
func TestRebuiltKeysOutliveTheirPages(t *testing.T) {
	db := openTestDB(t, Options{})
	if _, err := db.Exec(nil, `CREATE TABLE kv (k VARCHAR NOT NULL, b VARBINARY, n BIGINT) PRIMARY KEY (k)`); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateSecondaryIndex("kv", "b"); err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(11))
	for _, id := range r.Perm(2000) {
		if _, err := db.Exec(nil, fmt.Sprintf(`INSERT INTO kv (k, b, n) VALUES ('k%05d-%s', X'%02x00%04x', %d)`,
			id, strings.Repeat("p", r.Intn(30)), id%7, id, id)); err != nil {
			t.Fatal(err)
		}
	}
	tbl, _ := db.Table("kv")
	if err := tbl.RebuildIndex(); err != nil {
		t.Fatal(err)
	}
	for _, stmt := range []string{
		`DELETE FROM kv WHERE n >= 0 AND n < 600`,
		`UPDATE kv SET n = n + 100000, b = X'ffffffffffffffffffffffffffffffffffffffff' WHERE n >= 1500`,
		`INSERT INTO kv (k, b, n) VALUES ('a', X'00', 1), ('b', NULL, 2)`,
	} {
		if _, err := db.Exec(nil, stmt); err != nil {
			t.Fatalf("%s: %v", stmt, err)
		}
	}
	indexMatchesHeap(t, tbl)
}

// TestOpenFailsOnDuplicateLoadedKey writes a duplicate primary key
// under the loader: RebuildIndex and the next Open refuse the table
// with the table, the RID of the row that repeats a key first in heap
// order, and the key.
func TestOpenFailsOnDuplicateLoadedKey(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{Now: newClock().Now})
	if err != nil {
		t.Fatal(err)
	}
	createParts(t, db)
	tbl, _ := db.Table("parts")
	var recs [][]byte
	for _, id := range []int64{4, 1, 2, 3, 2, 1} {
		rec, err := catalog.EncodeTuple(nil, tbl.Schema, catalog.Tuple{catalog.NewInt(id),
			catalog.NewString("s"), catalog.NewInt(id), catalog.NewTime(db.Now())})
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, rec)
	}
	rids, err := tbl.Heap().DirectLoad(recs)
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("engine: parts at %v: duplicate key 2", rids[4])
	if err := tbl.RebuildIndex(); err == nil || err.Error() != want {
		t.Fatalf("RebuildIndex: %v, want %q", err, want)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db, err = Open(dir, Options{Now: newClock().Now})
	if err == nil {
		db.Close()
		t.Fatal("Open accepted a duplicate primary key")
	}
	if err.Error() != want {
		t.Fatalf("Open: %v, want %q", err, want)
	}
}

// TestCreateIndexBesideWriters runs INSERT and DELETE writers while
// CREATE INDEX backfills: no statement may fail, and afterwards the
// index must hold exactly one entry per live row.
func TestCreateIndexBesideWriters(t *testing.T) {
	db := openTestDB(t, Options{})
	createParts(t, db)
	tbl, _ := db.Table("parts")
	var recs [][]byte
	for id := int64(0); id < 20_000; id++ {
		rec, err := catalog.EncodeTuple(nil, tbl.Schema, catalog.Tuple{catalog.NewInt(id),
			catalog.NewString(fmt.Sprint("s", id%13)), catalog.NewInt(id % 97), catalog.NewTime(db.Now())})
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, rec)
	}
	if _, err := tbl.Heap().DirectLoad(recs); err != nil {
		t.Fatal(err)
	}
	if err := tbl.RebuildIndex(); err != nil {
		t.Fatal(err)
	}

	const writers = 3
	stop := make(chan struct{})
	errs := make(chan error, writers)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(w)))
			for i := 0; ; i++ {
				select {
				case <-stop:
					errs <- nil
					return
				default:
				}
				id := 100_000*(w+1) + i
				stmt := fmt.Sprintf(`INSERT INTO parts (part_id, status, qty) VALUES (%d, 'w%d', %d)`, id, w, i%97)
				if i%3 == 2 {
					stmt = fmt.Sprintf(`DELETE FROM parts WHERE part_id = %d`, r.Intn(20_000))
				}
				if _, err := db.Exec(nil, stmt); err != nil {
					errs <- fmt.Errorf("writer %d: %s: %w", w, stmt, err)
					return
				}
			}
		}(w)
	}
	time.Sleep(20 * time.Millisecond)
	createErr := db.CreateSecondaryIndex("parts", "status")
	time.Sleep(20 * time.Millisecond)
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
	if createErr != nil {
		t.Fatalf("CreateSecondaryIndex: %v", createErr)
	}
	indexMatchesHeap(t, tbl)
}

// TestRebuildMetrics checks that Open exports what its index rebuild
// built and took, per table.
func TestRebuildMetrics(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{ObsDB: "m"})
	if err != nil {
		t.Fatal(err)
	}
	createParts(t, db)
	if err := db.CreateSecondaryIndex("parts", "qty"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(nil, `INSERT INTO parts (part_id, qty) VALUES (1, 10), (2, 20), (3, 10)`); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if db, err = Open(dir, Options{ObsDB: "m"}); err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	snap := db.Obs().Snapshot()
	keys := snap.Get("engine_index_rebuild_keys_total", obs.L("db", "m"), obs.L("table", "parts"))
	secs := snap.Get("engine_index_rebuild_seconds_total", obs.L("db", "m"), obs.L("table", "parts"))
	if keys == nil || secs == nil {
		t.Fatalf("rebuild series missing:\n%s", snap.Text())
	}
	if keys.Value != 6 || secs.Value <= 0 {
		t.Fatalf("rebuild keys %v seconds %v, want 6 (3 rows, 2 indexes) and > 0", keys.Value, secs.Value)
	}
}
