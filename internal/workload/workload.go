// Package workload generates the paper's experimental workload: PARTS
// tables of 100-byte records (the paper's source table is "10 million
// 100-byte records"), transactions parameterized by the number of rows
// they touch, and the SQL statement shapes the experiments in §3 and §4
// measure.
package workload

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"time"

	"opdelta/internal/catalog"
	"opdelta/internal/engine"
)

// RecordBytes is the paper's record size.
const RecordBytes = 100

// PartsDDL creates the experiment's source table.
const PartsDDL = `CREATE TABLE parts (
	part_id BIGINT NOT NULL,
	status VARCHAR,
	qty BIGINT,
	last_modified TIMESTAMP,
	payload VARCHAR
) PRIMARY KEY (part_id) TIMESTAMP COLUMN (last_modified)`

// PartsSchema returns the schema PartsDDL creates.
func PartsSchema() *catalog.Schema {
	return catalog.NewSchema(
		catalog.Column{Name: "part_id", Type: catalog.TypeInt64, NotNull: true},
		catalog.Column{Name: "status", Type: catalog.TypeString},
		catalog.Column{Name: "qty", Type: catalog.TypeInt64},
		catalog.Column{Name: "last_modified", Type: catalog.TypeTime},
		catalog.Column{Name: "payload", Type: catalog.TypeString},
	)
}

// statuses cycle through plausible part states.
var statuses = []string{"new", "active", "hold", "revised", "retired"}

// Status returns the i-th of the five part states, cycling; PartRow
// gives part id its Status(id). They are 3 to 7 bytes long, so updating
// a row's status can grow its record.
func Status(i int64) string { return statuses[i%int64(len(statuses))] }

// payloadLen pads the encoded tuple to RecordBytes:
// bitmap(1) + id(8) + status len+bytes + qty(8) + ts(8) + payload len+bytes.
func payloadLen(status string) int {
	// bitmap(1) + id(8) + status varint(1)+bytes + qty(8) + ts(8) +
	// payload varint(1, payload stays under 128 bytes).
	overhead := 1 + 8 + 1 + len(status) + 8 + 8 + 1
	n := RecordBytes - overhead
	if n < 0 {
		return 0
	}
	return n
}

// PartRow builds the 100-byte record for a part id. Deterministic given
// (id, ts) so workloads are reproducible.
func PartRow(id int64, ts time.Time) catalog.Tuple {
	status := Status(id)
	pl := payloadLen(status)
	payload := strings.Repeat(string(rune('a'+id%26)), pl)
	return catalog.Tuple{
		catalog.NewInt(id),
		catalog.NewString(status),
		catalog.NewInt(id % 1000),
		catalog.NewTime(ts),
		catalog.NewString(payload),
	}
}

// CreateParts creates the parts table in db.
func CreateParts(db *engine.DB) error {
	_, err := db.Exec(nil, PartsDDL)
	return err
}

// Populate bulk-loads n parts rows (ids 0..n-1) through the direct
// block path — fast table construction for experiments whose measured
// phase comes later. Timestamps are stamped with the engine clock.
func Populate(db *engine.DB, n int) error {
	t, err := db.Table("parts")
	if err != nil {
		return err
	}
	const batch = 5000
	recs := make([][]byte, 0, batch)
	for id := int64(0); id < int64(n); id++ {
		enc, err := catalog.EncodeTuple(nil, t.Schema, PartRow(id, db.Now()))
		if err != nil {
			return err
		}
		recs = append(recs, enc)
		if len(recs) == batch {
			if _, err := t.Heap().DirectLoad(recs); err != nil {
				return err
			}
			recs = recs[:0]
		}
	}
	if len(recs) > 0 {
		if _, err := t.Heap().DirectLoad(recs); err != nil {
			return err
		}
	}
	if err := t.Heap().Flush(); err != nil {
		return err
	}
	return t.RebuildIndex()
}

// InsertStmt builds one multi-row INSERT for ids [first, first+k).
// Explicit values for every column except the engine-maintained
// timestamp, which the engine stamps.
func InsertStmt(first int64, k int) string {
	var b strings.Builder
	b.WriteString("INSERT INTO parts (part_id, status, qty, payload) VALUES ")
	for i := 0; i < k; i++ {
		if i > 0 {
			b.WriteString(", ")
		}
		id := first + int64(i)
		row := PartRow(id, time.Time{})
		fmt.Fprintf(&b, "(%d, %s, %d, %s)",
			id, row[1].SQLLiteral(), row[2].Int(), row[4].SQLLiteral())
	}
	return b.String()
}

// DeleteStmt builds the paper's delete transaction: one statement
// removing k consecutive ids starting at first.
func DeleteStmt(first int64, k int) string {
	return fmt.Sprintf("DELETE FROM parts WHERE part_id BETWEEN %d AND %d", first, first+int64(k)-1)
}

// UpdateStmt builds the paper's update transaction: one statement
// revising k consecutive ids starting at first. The marker keeps
// repeated runs from degenerating into no-ops.
func UpdateStmt(first int64, k int, marker string) string {
	return fmt.Sprintf("UPDATE parts SET status = '%s' WHERE part_id BETWEEN %d AND %d",
		marker, first, first+int64(k)-1)
}

// ScanStatement is a representative OLAP query: a predicate scan that
// touches every page.
func ScanStatement() string {
	return "SELECT part_id, qty FROM parts WHERE qty >= 500"
}

// StripeScanStatement is the partition-wise variant of the OLAP query:
// a scan bounded to one primary-key stripe, the common pattern when a
// reporting job walks a warehouse table partition by partition. Its
// predicate is an exact PK range, so the engine locks only the stripe
// (IS + shared range) and key-disjoint appliers keep running.
func StripeScanStatement(first int64, k int) string {
	return fmt.Sprintf("SELECT part_id, qty FROM parts WHERE part_id BETWEEN %d AND %d",
		first, first+int64(k)-1)
}

// Rand returns a deterministic rng for a named experiment.
func Rand(name string) *rand.Rand {
	var seed int64
	for _, c := range name {
		seed = seed*31 + int64(c)
	}
	return rand.New(rand.NewSource(seed))
}

// Clock is a deterministic logical clock for experiments: strictly
// monotonic, 1ms ticks, safe for concurrent use.
type Clock struct {
	mu  sync.Mutex
	now time.Time
}

// NewClock starts at the paper's publication era for flavor.
func NewClock() *Clock {
	return &Clock{now: time.Date(2000, 2, 29, 0, 0, 0, 0, time.UTC)}
}

// Now advances and returns the clock.
func (c *Clock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(time.Millisecond)
	return c.now
}

// DeleteStmtScan is DeleteStmt with a predicate the planner cannot map
// to the PK index, forcing the full table scan the paper's delete
// transactions perform ("each delete transaction performs a table
// scan"). The extra conjunct is always true.
func DeleteStmtScan(first int64, k int) string {
	return fmt.Sprintf("DELETE FROM parts WHERE part_id BETWEEN %d AND %d AND qty >= 0",
		first, first+int64(k)-1)
}

// UpdateStmtScan is the scan-based variant of UpdateStmt, matching the
// paper's "each update transaction performs a table scan".
func UpdateStmtScan(first int64, k int, marker string) string {
	return fmt.Sprintf("UPDATE parts SET status = '%s' WHERE part_id BETWEEN %d AND %d AND qty >= 0",
		marker, first, first+int64(k)-1)
}

// SingleInsertStmt builds one single-row INSERT; OLTP transactions of
// size k issue k of these (the record-at-a-time shape COTS software
// submits).
func SingleInsertStmt(id int64) string {
	row := PartRow(id, time.Time{})
	return fmt.Sprintf("INSERT INTO parts (part_id, status, qty, payload) VALUES (%d, %s, %d, %s)",
		id, row[1].SQLLiteral(), row[2].Int(), row[4].SQLLiteral())
}
