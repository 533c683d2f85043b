package engine

import (
	"flag"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
)

// snapseeds bounds the randomized snapshot equivalence sweep. CI runs a
// larger bound: go test ./internal/engine/ -snapseeds 8
var snapseeds = flag.Int("snapseeds", 3, "seeds for the snapshot read equivalence sweep")

// TestSnapshotEquivalence is the MVCC property test: while one writer
// commits a seeded random transaction stream, concurrent snapshot
// readers query the table lock-free. The writer keeps a model of the
// table after every commit, stamped with that commit's LSN; a snapshot
// pinned at readLSN must answer exactly as the model at the greatest
// stamped LSN <= readLSN — i.e. every snapshot sees exactly some
// committed prefix, never a torn or in-flight state. The readers rotate
// through every plan a snapshot read has: a full scan, a PK point, a PK
// range, a PK range with LIMIT (the model's first n keys in the range)
// and a range over the secondary index on qty.
func TestSnapshotEquivalence(t *testing.T) {
	for seed := int64(1); seed <= int64(*snapseeds); seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			db := openTestDB(t, Options{})
			createParts(t, db)
			if err := db.CreateSecondaryIndex("parts", "qty"); err != nil {
				t.Fatal(err)
			}

			const keys = 60
			type row struct {
				status string
				qty    int64
			}
			// A query and the model's answer to it: its rows in key
			// order, the first limit of them when limit > 0. A PK plan
			// must return them in that order; the others in any.
			type query struct {
				sql     string
				keep    func(k int64, r row) bool
				limit   int
				ordered bool
			}
			pick := func(rng *rand.Rand, i int) query {
				const cols = `SELECT part_id, status, qty FROM parts`
				lo := int64(rng.Intn(keys))
				hi := lo + int64(rng.Intn(20))
				inRange := func(k int64, _ row) bool { return k >= lo && k <= hi }
				switch i % 5 {
				case 0:
					return query{sql: cols, keep: func(int64, row) bool { return true }}
				case 1:
					return query{sql: fmt.Sprintf(`%s WHERE part_id = %d`, cols, lo), keep: func(k int64, _ row) bool { return k == lo }, ordered: true}
				case 2:
					return query{sql: fmt.Sprintf(`%s WHERE part_id BETWEEN %d AND %d`, cols, lo, hi), keep: inRange, ordered: true}
				case 3:
					n := 1 + rng.Intn(5)
					return query{sql: fmt.Sprintf(`%s WHERE part_id BETWEEN %d AND %d LIMIT %d`, cols, lo, hi, n), keep: inRange, limit: n, ordered: true}
				default:
					qlo := int64(rng.Intn(1000))
					qhi := qlo + int64(rng.Intn(60))
					return query{sql: fmt.Sprintf(`%s WHERE qty BETWEEN %d AND %d`, cols, qlo, qhi), keep: func(_ int64, r row) bool { return r.qty >= qlo && r.qty <= qhi }}
				}
			}
			answer := func(m map[int64]row, q query) string {
				ks := make([]int64, 0, len(m))
				for k, r := range m {
					if q.keep(k, r) {
						ks = append(ks, k)
					}
				}
				sort.Slice(ks, func(i, j int) bool { return ks[i] < ks[j] })
				if q.limit > 0 && len(ks) > q.limit {
					ks = ks[:q.limit]
				}
				lines := make([]string, len(ks))
				for i, k := range ks {
					lines[i] = fmt.Sprintf("%d|%s|%d", k, m[k].status, m[k].qty)
				}
				if !q.ordered {
					sort.Strings(lines)
				}
				return strings.Join(lines, "\n")
			}
			// render runs q on tx and renders its rows as answer does.
			render := func(tx *Tx, q query) (string, error) {
				_, rows, err := db.Query(tx, q.sql)
				if err != nil {
					return "", err
				}
				lines := make([]string, len(rows))
				for i, tup := range rows {
					lines[i] = fmt.Sprintf("%d|%s|%d", tup[0].Int(), tup[1].Str(), tup[2].Int())
				}
				if !q.ordered {
					sort.Strings(lines)
				}
				return strings.Join(lines, "\n"), nil
			}

			type stamp struct {
				lsn   uint64
				model map[int64]row
			}
			var mu sync.Mutex
			// LSN 0 state: empty table, before any commit.
			stamps := []stamp{{0, map[int64]row{}}}

			// Readers race the writer's heap mutations with lock-free
			// snapshot reads, recording what they saw at which horizon.
			type obs struct {
				readLSN uint64
				q       query
				image   string
			}
			stop := make(chan struct{})
			var wg sync.WaitGroup
			var obsMu sync.Mutex
			var seen []obs
			var readerErr error
			observe := func(rng *rand.Rand, i int) error {
				q := pick(rng, i)
				stx := db.BeginSnapshot()
				image, err := render(stx, q)
				lsn := stx.ReadLSN()
				stx.Commit()
				if err != nil {
					return fmt.Errorf("%s: %w", q.sql, err)
				}
				obsMu.Lock()
				seen = append(seen, obs{lsn, q, image})
				obsMu.Unlock()
				return nil
			}
			for r := 0; r < 2; r++ {
				rng := rand.New(rand.NewSource(seed*100 + int64(r)))
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; ; i++ {
						select {
						case <-stop:
							return
						default:
						}
						if err := observe(rng, i); err != nil {
							obsMu.Lock()
							if readerErr == nil {
								readerErr = err
							}
							obsMu.Unlock()
							return
						}
					}
				}()
			}

			// The racing readers are opportunistic (a fast writer can
			// finish before they run), so the writer loop also observes
			// periodically to guarantee coverage at interesting horizons.
			inline := rand.New(rand.NewSource(-seed))
			rng := rand.New(rand.NewSource(seed))
			model := map[int64]row{}
			for i := 0; i < 80; i++ {
				if i%9 == 4 {
					if err := observe(inline, i/9); err != nil {
						t.Fatalf("inline snapshot read: %v", err)
					}
				}
				tx := db.Begin()
				next := make(map[int64]row, len(model))
				for k, r := range model {
					next[k] = r
				}
				for s := 0; s < 1+rng.Intn(3); s++ {
					var stmt string
					switch rng.Intn(10) {
					case 0, 1, 2: // insert a fresh key
						k := int64(rng.Intn(keys))
						for _, taken := next[k]; taken; _, taken = next[k] {
							k = (k + 1) % keys
						}
						st, q := fmt.Sprintf("s%d", rng.Intn(5)), int64(rng.Intn(1000))
						stmt = fmt.Sprintf(`INSERT INTO parts (part_id, status, qty) VALUES (%d, '%s', %d)`, k, st, q)
						next[k] = row{st, q}
					case 3, 4: // point delete
						k := int64(rng.Intn(keys))
						delete(next, k)
						stmt = fmt.Sprintf(`DELETE FROM parts WHERE part_id = %d`, k)
					case 5, 6, 7: // range update
						lo := int64(rng.Intn(keys))
						hi := lo + int64(rng.Intn(12))
						st := fmt.Sprintf("u%d", rng.Intn(5))
						stmt = fmt.Sprintf(`UPDATE parts SET status = '%s' WHERE part_id BETWEEN %d AND %d`, st, lo, hi)
						for k, r := range next {
							if k >= lo && k <= hi {
								next[k] = row{st, r.qty}
							}
						}
					case 8: // computed point update
						k := int64(rng.Intn(keys))
						d := int64(1 + rng.Intn(9))
						stmt = fmt.Sprintf(`UPDATE parts SET qty = qty + %d WHERE part_id = %d`, d, k)
						if r, ok := next[k]; ok {
							next[k] = row{r.status, r.qty + d}
						}
					default: // PK change onto a free key
						from := int64(rng.Intn(keys))
						to := int64(rng.Intn(keys))
						for _, taken := next[to]; taken && to != from; _, taken = next[to] {
							to = (to + 1) % keys
						}
						if _, taken := next[to]; taken {
							continue // keyspace full; skip
						}
						stmt = fmt.Sprintf(`UPDATE parts SET part_id = %d WHERE part_id = %d`, to, from)
						if r, ok := next[from]; ok {
							delete(next, from)
							next[to] = r
						}
					}
					if _, err := db.Exec(tx, stmt); err != nil {
						t.Fatalf("writer stmt %q: %v", stmt, err)
					}
				}
				if err := tx.Commit(); err != nil {
					t.Fatal(err)
				}
				if lsn := tx.CommitLSN(); lsn > 0 {
					model = next
					mu.Lock()
					stamps = append(stamps, stamp{lsn, model})
					mu.Unlock()
				}
			}
			close(stop)
			wg.Wait()
			if readerErr != nil {
				t.Fatalf("snapshot reader: %v", readerErr)
			}

			// Every observation must equal the model at the greatest
			// stamped commit LSN at or below its read horizon.
			for _, o := range seen {
				idx := sort.Search(len(stamps), func(i int) bool { return stamps[i].lsn > o.readLSN }) - 1
				if idx < 0 {
					t.Fatalf("readLSN %d below every stamp", o.readLSN)
				}
				if want := answer(stamps[idx].model, o.q); o.image != want {
					t.Fatalf("snapshot at LSN %d diverged from committed state at LSN %d on %s:\n--- snapshot ---\n%s\n--- model ---\n%s",
						o.readLSN, stamps[idx].lsn, o.q.sql, o.image, want)
				}
			}
			if len(seen) == 0 {
				t.Fatal("readers recorded no observations")
			}

			// Quiesced cross-check: on every plan the final snapshot must
			// equal both the model and the locked read.
			stx := db.BeginSnapshot()
			defer stx.Commit()
			for i := 0; i < 10; i++ {
				q := pick(inline, i)
				snap, err := render(stx, q)
				if err != nil {
					t.Fatalf("%s: %v", q.sql, err)
				}
				locked, err := render(nil, q)
				if err != nil {
					t.Fatalf("%s: %v", q.sql, err)
				}
				if want := answer(model, q); snap != want || locked != want {
					t.Fatalf("%s:\n--- final snapshot ---\n%s\n--- locked ---\n%s\n--- model ---\n%s", q.sql, snap, locked, want)
				}
			}
		})
	}
}
