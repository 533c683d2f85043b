package netrepl

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"opdelta/internal/catalog"
	"opdelta/internal/keyset"
	"opdelta/internal/obs"
	"opdelta/internal/opdelta"
	"opdelta/internal/warehouse"
)

// Bootstrapper is the replica-side coordinator of DBLog-style snapshot
// bootstrap for one source: it negotiates the mode in the handshake,
// buffers the watermark-bracketed chunks the shipper interleaves with
// live deltas, reconciles each chunk against the deltas applied inside
// its watermark window, and lands survivors atomically with progress in
// the durable warehouse.BootstrapLog.
//
// # Reconciliation invariant
//
// The source assigns op seqs at capture, before commit, so seq order is
// not commit order; raw seq samples are unsound watermarks. The
// snapshotter therefore brackets every chunk with
//
//	low  = resolved horizon before the read (every op ≤ low has
//	       committed or aborted, so every committed op ≤ low is
//	       visible to the chunk read), and
//	high = the largest committed seq once every op assigned before the
//	       read finished has resolved (so every op visible to the read
//	       has seq ≤ high).
//
// The replica holds a chunk until its applied cursor reaches high, then
// drops a chunk row for key K iff some op applied since the handshake
// with seq > low has a statement footprint containing K. Such an op may
// have committed after the chunk read — its effect would be missing
// from the chunk row, and because deltas here are statements, not row
// images, simply preferring "the delta" is not enough: an UPDATE
// applied against an absent base row no-ops and the row would be lost.
// Dropped keys are chased: the shipper re-reads exactly those keys
// under a fresh watermark window until a round has no invalidated rows,
// then the whole chunk commits in one transaction. Ops with seq ≤ low
// are fully contained in the chunk row; ops recorded before the
// handshake committed at the source before any chunk read of this
// session and are likewise contained — both need no drop.
//
// Frame ordering carries no meaning: watermarks are compared as log
// seqs against applied ops, never as stream positions, so the same
// reordering/duplication faults the prevSeq chain defends deltas
// against cannot break bootstrap. Stale rounds are fenced by the
// (chunk, round) pair.
type Bootstrapper struct {
	// Log is the durable progress ledger (and the warehouse handle).
	Log *warehouse.BootstrapLog
	// Applied seeds the applied cursor at handshake time.
	Applied *warehouse.AppliedLog
	// Source labels metrics.
	Source string
	// Obs receives bootstrap metrics; nil keeps a private registry.
	Obs *obs.Registry
	// BrokenChunkWins disables the delta-wins drop rule so the
	// resurrection/lost-update failure mode stays demonstrable (à la
	// UnsafeAcceptOutOfOrder). Never set outside tests.
	BrokenChunkWins bool
	// Spans, when set, closes a traced chunk's span chain: its commit
	// records a "chunk-settle" span from frame receipt to durable
	// apply, parented under the shipper's wire span. Nil disables it.
	Spans *obs.SpanTracer

	once sync.Once

	chunksTotal  *obs.Counter
	rowsTotal    *obs.Counter
	chasesTotal  *obs.Counter
	droppedTotal *obs.Counter
	activeGauge  *obs.Gauge

	mu       sync.Mutex
	send     func(typ, flags byte, payload []byte) error
	active   bool
	cursor   uint64
	recs     []appliedRec
	pend     *pendChunk
	lastDone uint64 // chunk ids ≤ this completed in this session

	foot map[string]footMeta
}

// appliedRec is one applied op's footprint, recorded for collision
// checks against in-flight chunks.
type appliedRec struct {
	seq   uint64
	table string
	fp    keyset.Footprint
}

type footMeta struct {
	schema *catalog.Schema
	pkName string
	pkCol  int
	codec  *opdelta.KeyCodec
}

// accEntry is a chunk row that survived reconciliation so far, tagged
// with the low watermark it was validated against: later rounds
// re-validate it as new deltas apply, until the whole chunk is clean.
type accEntry struct {
	row catalog.Tuple
	key catalog.Value
	low uint64
}

// pendChunk buffers one in-flight chunk: the current round's watermarks
// and rows, plus survivors accumulated across chase rounds.
type pendChunk struct {
	id        uint64
	round     uint64
	evaluated uint64 // rounds ≤ this already judged; stale frames ignored
	haveLow   bool
	haveHigh  bool
	haveRows  bool
	low, high uint64
	flags     byte
	table     string
	lastKey   []byte
	rows      [][]byte
	accum     map[string]accEntry

	// Wire trace context of the latest traced chunk frame, if any:
	// the settle span covers receipt to durable commit.
	tc     obs.TraceContext
	recvNs int64
}

func (b *Bootstrapper) init() {
	b.once.Do(func() {
		reg := b.Obs
		if reg == nil {
			reg = obs.NewRegistry()
		}
		l := obs.L("source", b.Source)
		b.chunksTotal = reg.Counter("netrepl_bootstrap_chunks_total", l)
		b.rowsTotal = reg.Counter("netrepl_bootstrap_rows_total", l)
		b.chasesTotal = reg.Counter("netrepl_bootstrap_chases_total", l)
		b.droppedTotal = reg.Counter("netrepl_bootstrap_dropped_rows_total", l)
		b.activeGauge = reg.Gauge("netrepl_bootstrap_active", l)
		b.foot = make(map[string]footMeta)
	})
}

// Handshake decides the session mode from the source's advertised log
// base and the topic's durable seq, and binds the ack sender for this
// connection. Any chunk pending from a previous connection is
// discarded — the shipper re-reads it from the durable progress.
func (b *Bootstrapper) Handshake(base, topicLast uint64, send func(typ, flags byte, payload []byte) error) (mode byte, progress []BootstrapProgress, err error) {
	b.init()
	b.mu.Lock()
	defer b.mu.Unlock()
	b.send = send
	b.pend = nil
	b.lastDone = 0
	meta, err := b.Log.Meta()
	if err != nil {
		return 0, nil, err
	}
	switch {
	case meta.Exists && !meta.Done && meta.Base == base:
		// Resume the interrupted run: finished chunks stay finished.
		prog, err := b.Log.Progress()
		if err != nil {
			return 0, nil, err
		}
		for _, p := range prog {
			progress = append(progress, BootstrapProgress{Table: p.Table, Done: p.Done, LastKey: p.LastKey})
		}
		if err := b.activate(); err != nil {
			return 0, nil, err
		}
		return ModeBootstrap, progress, nil
	case topicLast >= base:
		// Every op after the topic's durable seq is still replayable
		// from the source log: plain streaming covers the replica, no
		// snapshot needed (a completed earlier bootstrap covered ops up
		// to its own base the same way).
		b.deactivate()
		return ModeStream, nil, nil
	case meta.Exists && meta.Done && meta.Base >= base:
		// The completed run already covers all state through base;
		// streaming resumes above it.
		b.deactivate()
		return ModeStream, nil, nil
	default:
		// Fresh bootstrap: ops (topicLast, base] are gone from the
		// source log and no finished run covers them.
		if err := b.Log.StartRun(base); err != nil {
			return 0, nil, err
		}
		if err := b.activate(); err != nil {
			return 0, nil, err
		}
		return ModeBootstrap, nil, nil
	}
}

func (b *Bootstrapper) activate() error {
	max, err := b.Applied.MaxSeq()
	if err != nil {
		return err
	}
	if max > b.cursor {
		b.cursor = max
	}
	b.active = true
	b.activeGauge.Set(1)
	return nil
}

func (b *Bootstrapper) deactivate() {
	b.active = false
	b.recs = nil
	b.activeGauge.Set(0)
}

// Active reports whether a bootstrap run is in flight.
func (b *Bootstrapper) Active() bool {
	if b == nil {
		return false
	}
	b.init()
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.active
}

// Deliver buffers a WATERMARK or SNAPSHOT_CHUNK frame from the
// connection goroutine. Evaluation happens only on the applier
// goroutine (Observe), which serializes reconciliation against delta
// application; the connection wakes the applier after each frame. An
// error means the payload is malformed; stale or unexpected frames are
// dropped silently (duplication is normal).
// tc/recvNs carry a traced chunk's wire span context (zero when the
// frame was untraced).
func (b *Bootstrapper) Deliver(typ byte, payload []byte, tc obs.TraceContext, recvNs int64) error {
	b.init()
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.active {
		return nil
	}
	switch typ {
	case FrameWatermark:
		kind, chunkID, round, seq, err := parseWatermark(payload)
		if err != nil {
			return err
		}
		p := b.pendFor(chunkID, round)
		if p == nil {
			return nil
		}
		if kind == wmLow {
			p.low, p.haveLow = seq, true
		} else {
			p.high, p.haveHigh = seq, true
		}
	case FrameSnapshotChunk:
		chunkID, round, flags, table, lastKey, rows, err := parseChunk(payload)
		if err != nil {
			return err
		}
		p := b.pendFor(chunkID, round)
		if p == nil {
			return nil
		}
		p.flags, p.table, p.haveRows = flags, table, true
		p.lastKey = append([]byte(nil), lastKey...)
		p.rows = make([][]byte, len(rows))
		for i, r := range rows {
			p.rows[i] = append([]byte(nil), r...)
		}
		if !tc.Zero() {
			p.tc, p.recvNs = tc, recvNs
		}
	default:
		return fmt.Errorf("%w: unexpected bootstrap frame %s", ErrBadFrame, frameName(typ))
	}
	return nil
}

// pendFor returns the buffer for (chunkID, round), creating or
// advancing it, or nil when the frame is stale (completed chunk, or a
// round already judged).
func (b *Bootstrapper) pendFor(chunkID, round uint64) *pendChunk {
	if chunkID <= b.lastDone {
		return nil
	}
	if b.pend == nil || b.pend.id != chunkID {
		if b.pend != nil && chunkID < b.pend.id {
			return nil
		}
		b.pend = &pendChunk{id: chunkID, round: round, accum: make(map[string]accEntry)}
		return b.pend
	}
	p := b.pend
	if round <= p.evaluated || round < p.round {
		return nil
	}
	if round > p.round {
		// New chase round: survivors persist, the window resets.
		p.round = round
		p.haveLow, p.haveHigh, p.haveRows = false, false, false
		p.rows = nil
	}
	return p
}

// Observe records a batch of just-applied ops (footprints for the
// collision rule, cursor for the high-watermark gate) and then tries to
// settle the pending chunk. The applier calls it after the batch is
// applied, so the cursor is exact at batch boundaries, and with no ops
// whenever its queue runs dry, which settles a chunk whose high
// watermark the cursor had already passed when it arrived.
func (b *Bootstrapper) Observe(ops []*opdelta.Op) error {
	if b == nil {
		return nil
	}
	b.init()
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.active {
		for _, op := range ops {
			fp := keyset.WholeTable()
			if m, err := b.footMetaFor(op.Table); err == nil {
				if stmt, err := op.Statement(); err == nil {
					fp = keyset.StatementFootprint(stmt, m.schema, m.pkName)
				}
			}
			b.recs = append(b.recs, appliedRec{seq: op.Seq, table: strings.ToLower(op.Table), fp: fp})
		}
	}
	for _, op := range ops {
		if op.Seq > b.cursor {
			b.cursor = op.Seq
		}
	}
	return b.evaluate()
}

func (b *Bootstrapper) footMetaFor(table string) (footMeta, error) {
	key := strings.ToLower(table)
	if m, ok := b.foot[key]; ok {
		return m, nil
	}
	tbl, err := b.Log.W.DB.Table(table)
	if err != nil {
		return footMeta{}, err
	}
	if tbl.PKCol < 0 {
		return footMeta{}, fmt.Errorf("netrepl: bootstrap table %q has no primary key", table)
	}
	col := tbl.Schema.Column(tbl.PKCol)
	m := footMeta{schema: tbl.Schema, pkName: col.Name, pkCol: tbl.PKCol, codec: opdelta.NewKeyCodec(col)}
	b.foot[key] = m
	return m, nil
}

// collides reports whether any op applied since the handshake with
// seq > low touches key on table.
func (b *Bootstrapper) collides(table string, key catalog.Value, low uint64) bool {
	if b.BrokenChunkWins {
		return false
	}
	pt := keyset.Footprint{Ranges: []keyset.KeyRange{keyset.Point(key)}}
	for _, r := range b.recs {
		if r.seq > low && r.table == table && r.fp.Overlaps(pt) {
			return true
		}
	}
	return false
}

// evaluate judges the pending chunk once its round is complete and the
// applied cursor has passed its high watermark: dropped keys are chased
// with a CHUNK_ACK(resend); a clean round commits rows + progress in
// one transaction and acks done. Called with b.mu held, on the applier
// goroutine only.
func (b *Bootstrapper) evaluate() error {
	p := b.pend
	if !b.active || p == nil {
		return nil
	}
	if !p.haveLow || !p.haveHigh || !p.haveRows || p.round <= p.evaluated {
		return nil
	}
	if b.cursor < p.high {
		return nil
	}
	m, err := b.footMetaFor(p.table)
	if err != nil {
		return err
	}
	ltable := strings.ToLower(p.table)
	var chase [][]byte
	chased := make(map[string]bool)
	for _, enc := range p.rows {
		row, err := catalog.DecodeTuple(m.schema, enc)
		if err != nil {
			return err
		}
		key := row[m.pkCol]
		encKey, err := m.codec.Encode(key)
		if err != nil {
			return err
		}
		ks := string(encKey)
		if b.collides(ltable, key, p.low) {
			delete(p.accum, ks)
			if !chased[ks] {
				chased[ks] = true
				chase = append(chase, encKey)
			}
			b.droppedTotal.Inc()
			continue
		}
		p.accum[ks] = accEntry{row: row, key: key, low: p.low}
	}
	// Survivors from earlier rounds can be invalidated by deltas that
	// applied since their round was judged: re-validate every entry
	// against its own bracketing low before committing anything.
	for ks, e := range p.accum {
		if b.collides(ltable, e.key, e.low) {
			delete(p.accum, ks)
			if !chased[ks] {
				chased[ks] = true
				chase = append(chase, []byte(ks))
			}
			b.droppedTotal.Inc()
		}
	}
	p.evaluated = p.round
	if len(chase) > 0 {
		sort.Slice(chase, func(i, j int) bool { return string(chase[i]) < string(chase[j]) })
		b.chasesTotal.Inc()
		if b.send != nil {
			// Ack loss is survivable: the shipper's chunk-ack timeout
			// forces a reconnect that resumes from durable progress.
			b.send(FrameChunkAck, 0, chunkAckPayload(p.id, p.round, chunkResend, chase))
		}
		return nil
	}
	keys := make([]string, 0, len(p.accum))
	for ks := range p.accum {
		keys = append(keys, ks)
	}
	sort.Strings(keys)
	rows := make([]catalog.Tuple, 0, len(keys))
	for _, ks := range keys {
		rows = append(rows, p.accum[ks].row)
	}
	tableDone := p.flags&chunkFinal != 0
	runDone := p.flags&chunkRunDone != 0
	// On the table's first chunk the warehouse clears stale replica rows;
	// keep claims every key a delta touched since activation — such rows
	// are delta-authored, and the row may never be re-sent by a chunk
	// (its op is already in the applied log, and the snapshot read may
	// predate its commit).
	keep := func(pk catalog.Value) bool { return b.collides(ltable, pk, 0) }
	if err := b.Log.ApplyChunk(p.table, rows, p.lastKey, keep, tableDone, runDone); err != nil {
		return err
	}
	b.chunksTotal.Inc()
	b.rowsTotal.Add(uint64(len(rows)))
	if !p.tc.Zero() {
		b.Spans.Record(obs.SpanRecord{
			TraceID: p.tc.TraceID, SpanID: obs.SpanIDFor(p.tc.TraceID, "chunk-settle"),
			ParentID: p.tc.SpanID, Name: "chunk-settle", Source: b.Source, Seq: p.id,
			StartUnixNs: p.recvNs, EndUnixNs: time.Now().UnixNano(),
		})
	}
	b.lastDone = p.id
	low := p.low
	b.pend = nil
	if b.send != nil {
		b.send(FrameChunkAck, 0, chunkAckPayload(p.id, p.round, chunkDone, nil))
	}
	if runDone {
		b.deactivate()
		return nil
	}
	// Future chunks of THIS table bracket with lows sampled later, hence
	// ≥ this low (the horizon is monotone), so its older footprints can
	// never fire again. Other tables' footprints must survive until their
	// own first chunk: the clear-time keep predicate needs every delta
	// since activation.
	live := b.recs[:0]
	for _, r := range b.recs {
		if r.seq > low || r.table != ltable {
			live = append(live, r)
		}
	}
	b.recs = live
	return nil
}
