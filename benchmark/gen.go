package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"time"

	"opdelta/internal/workload"
)

// schedule is everything the system under test will be given, produced
// from the seed before the clock starts: the writer's statements, their
// due times on an open loop, and the reader's query rotation. The
// program only ever sees this generated SQL.
type schedule struct {
	stmts []string
	// due holds each statement's send time as an offset from the start
	// of the run; nil on a closed loop.
	due   []time.Duration
	reads []string
	// endRows is the generator's model of the parts row count after the
	// whole stream; the stationarity test compares it with the start.
	endRows int
	hash    uint64
}

// statuses mirrors internal/workload's part states: UPDATE markers are
// drawn from the same five values so the GROUP BY status aggregate view
// keeps a fixed number of groups however long the stream runs.
var statuses = []string{"new", "active", "hold", "revised", "retired"}

// keyPool is the generator's model of which keys are live. Keys live in
// two dense slices so uniform picks and swap-removes are O(1).
type keyPool struct {
	live, dead []int64
}

func newKeyPool(liveN, deadN int) *keyPool {
	p := &keyPool{live: make([]int64, liveN), dead: make([]int64, deadN)}
	for i := range p.live {
		p.live[i] = int64(i)
	}
	for i := range p.dead {
		p.dead[i] = int64(liveN + i)
	}
	return p
}

func take(s *[]int64, rng *rand.Rand) int64 {
	i := rng.Intn(len(*s))
	k := (*s)[i]
	(*s)[i] = (*s)[len(*s)-1]
	*s = (*s)[:len(*s)-1]
	return k
}

func (p *keyPool) insert(rng *rand.Rand) int64 {
	k := take(&p.dead, rng)
	p.live = append(p.live, k)
	return k
}

func (p *keyPool) delete(rng *rand.Rand) int64 {
	k := take(&p.live, rng)
	p.dead = append(p.dead, k)
	return k
}

func (p *keyPool) pick(rng *rand.Rand) int64 { return p.live[rng.Intn(len(p.live))] }

// deck deals statement kinds in shuffled hands, so every stretch of
// len(cards) statements has exactly the declared mix. Drawing kinds
// independently would let two seeds differ by a few percent in how many
// expensive statements they hold, which is noise the system under test
// did not cause.
type deck struct {
	cards string
	hand  []byte
}

func (d *deck) draw(rng *rand.Rand) byte {
	if len(d.hand) == 0 {
		d.hand = []byte(d.cards)
		rng.Shuffle(len(d.hand), func(i, j int) { d.hand[i], d.hand[j] = d.hand[j], d.hand[i] })
	}
	c := d.hand[0]
	d.hand = d.hand[1:]
	return c
}

func marker(rng *rand.Rand) string { return statuses[rng.Intn(len(statuses))] }

// pointMix is the single-row mix: 40 % UPDATE, and 60 % slots that
// alternate INSERT and DELETE around the starting size, which keeps the
// table size-stationary over streams of any length at exactly 30/30.
// Keys are uniform over the live (or absent) set.
type pointMix struct {
	kinds  deck
	keys   *keyPool
	target int
}

func newPointMix(rows int) *pointMix {
	return &pointMix{kinds: deck{cards: "UUUUXXXXXX"}, keys: newKeyPool(rows, rows), target: rows}
}

func (m *pointMix) stmt(rng *rand.Rand) string {
	if m.kinds.draw(rng) == 'U' {
		return workload.UpdateStmt(m.keys.pick(rng), 1, marker(rng))
	}
	if len(m.keys.live) <= m.target {
		return workload.SingleInsertStmt(m.keys.insert(rng))
	}
	return workload.DeleteStmt(m.keys.delete(rng), 1)
}

// generate builds the schedule for one workload. total bounds the
// stream: the offered load over that time on an open loop, a generous
// cap on a closed one.
func generate(spec workloadSpec, seed int64, total time.Duration) *schedule {
	rng := rand.New(rand.NewSource(seed))
	perSec := spec.rate
	if perSec == 0 {
		perSec = spec.maxOpsPerSec
	}
	n := int(total.Seconds() * float64(perSec))
	s := &schedule{stmts: make([]string, 0, n)}

	switch spec.mix {
	case mixPoint:
		m := newPointMix(spec.rows)
		for i := 0; i < n; i++ {
			s.stmts = append(s.stmts, m.stmt(rng))
		}
		s.endRows = len(m.keys.live)

	case mixOLAP:
		m := newPointMix(spec.rows)
		kinds := deck{cards: "RPPPP"}
		for i := 0; i < n; i++ {
			if kinds.draw(rng) == 'R' {
				first := rng.Int63n(int64(spec.rows - olapUpdateRows))
				s.stmts = append(s.stmts, workload.UpdateStmt(first, olapUpdateRows, marker(rng)))
				continue
			}
			s.stmts = append(s.stmts, m.stmt(rng))
		}
		s.endRows = len(m.keys.live)

	case mixRange:
		// The table is modelled as blocks of rangeInsertRows consecutive
		// ids, each wholly present or wholly absent. A DELETE empties two
		// adjacent blocks and an INSERT refills one, so serving the
		// insert-or-delete slots as "refill if anything is empty, else
		// delete" yields exactly one DELETE per two INSERTs: 40 % UPDATE,
		// 20 % DELETE, 40 % INSERT, size-stationary.
		var empty []int64
		pairs := int64(spec.rows / rangeDeleteRows)
		rows := spec.rows
		kinds := deck{cards: "UUXXX"}
		for i := 0; i < n; i++ {
			switch {
			case kinds.draw(rng) == 'U':
				first := rng.Int63n(int64(spec.rows - rangeUpdateRows))
				s.stmts = append(s.stmts, workload.UpdateStmt(first, rangeUpdateRows, marker(rng)))
			case len(empty) > 0:
				first := take(&empty, rng)
				rows += rangeInsertRows
				s.stmts = append(s.stmts, workload.InsertStmt(first, rangeInsertRows))
			default:
				first := rng.Int63n(pairs) * rangeDeleteRows
				empty = append(empty, first, first+rangeInsertRows)
				rows -= rangeDeleteRows
				s.stmts = append(s.stmts, workload.DeleteStmt(first, rangeDeleteRows))
			}
		}
		s.endRows = rows
	}

	if spec.rate > 0 {
		s.due = make([]time.Duration, n)
		gap := time.Second / time.Duration(spec.rate)
		for i := range s.due {
			s.due[i] = time.Duration(i) * gap
		}
	}

	// Reader rotation: stripe scans then one aggregate, walking the
	// table from a seeded starting stripe.
	stripe := spec.rows / stripeFraction
	quarter := spec.rows / aggFraction
	pos := rng.Intn(stripeFraction)
	for round := 0; round < stripeFraction; round++ {
		for k := 1; k < readRotation; k++ {
			first := int64(pos%stripeFraction) * int64(stripe)
			pos++
			s.reads = append(s.reads, workload.StripeScanStatement(first, stripe))
		}
		first := int64(round%aggFraction) * int64(quarter)
		s.reads = append(s.reads, fmt.Sprintf(
			"SELECT status, COUNT(*), SUM(qty) FROM parts WHERE part_id BETWEEN %d AND %d GROUP BY status",
			first, first+int64(quarter)-1))
	}

	h := fnv.New64a()
	for i, st := range s.stmts {
		h.Write([]byte(st))
		if s.due != nil {
			fmt.Fprintf(h, "@%d", s.due[i])
		}
		h.Write([]byte{0})
	}
	for _, q := range s.reads {
		h.Write([]byte(q))
		h.Write([]byte{0})
	}
	s.hash = h.Sum64()
	return s
}
