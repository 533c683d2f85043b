package fault

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// NetProfile is a seeded network fault schedule. Each Write call on a
// faulty connection is one "segment" (the replication protocol writes
// exactly one frame per Write, so segment faults are frame faults), and
// every probability is evaluated per segment from a deterministic
// per-direction random stream derived from Seed. The zero profile
// injects nothing — a NetPair built from it is a reliable in-memory
// duplex link.
type NetProfile struct {
	// Seed drives every fault decision. Two Nets with equal profiles
	// make identical per-direction decision sequences.
	Seed int64

	// DropProb silently discards the segment. The frame never arrives;
	// recovery relies on the sender's ack-timeout and resume-from-LSN.
	DropProb float64
	// DupProb delivers the segment twice. CRC-valid duplicate frames
	// reach the peer; recovery relies on (source, seq) deduplication.
	DupProb float64
	// ReorderProb delivers this segment before the previously queued
	// one (a no-op when nothing is queued).
	ReorderProb float64
	// TruncateProb delivers a strict prefix of the segment and then
	// cuts the connection — the classic torn frame at connection death.
	TruncateProb float64
	// DelayProb stalls the stream for up to MaxDelay before this
	// segment is delivered.
	DelayProb float64
	// CutProb severs the connection (both directions) instead of
	// delivering the segment — a mid-stream partition; the endpoints
	// see reads and writes fail and must redial.
	CutProb float64
	// DialFailProb makes Dial fail outright — the partition is still up
	// when the client retries, exercising its backoff policy.
	DialFailProb float64
	// MaxDelay bounds injected delays. Default 2ms.
	MaxDelay time.Duration
}

func (p NetProfile) maxDelay() time.Duration {
	if p.MaxDelay <= 0 {
		return 2 * time.Millisecond
	}
	return p.MaxDelay
}

// ErrNetClosed is returned by operations on a closed or cut fault net
// connection.
var ErrNetClosed = errors.New("fault: network connection closed")

// ErrDialFault is returned by Net.Dial when the schedule injects a
// dial failure (simulated partition at connect time).
var ErrDialFault = errors.New("fault: injected dial failure")

// Net is an in-memory network with seeded fault injection: one
// Listener and any number of Dials, each yielding a connection whose
// two directions independently drop, duplicate, reorder, truncate and
// delay segments per the profile. It stands to the wire protocol as
// SimFS stands to the storage stack: the deterministic adversary the
// simnet harness replays by seed.
type Net struct {
	profile NetProfile

	mu       sync.Mutex
	dialRand *rand.Rand
	dirSeq   int64
	accept   chan net.Conn
	closed   bool

	// Fault counters, for harness reporting.
	drops, dups, reorders, truncates, delays, cuts, dialFails atomic.Uint64
}

// NewNet creates a faulty network for the given profile.
func NewNet(profile NetProfile) *Net {
	return &Net{
		profile:  profile,
		dialRand: rand.New(rand.NewSource(profile.Seed ^ 0x6e657464)),
		accept:   make(chan net.Conn, 16),
	}
}

// NetStats reports how many faults the schedule has injected so far.
type NetStats struct {
	Drops, Dups, Reorders, Truncates, Delays, Cuts, DialFails uint64
}

// Add sums o into s — the faults of several networks, one per phase.
func (s *NetStats) Add(o NetStats) {
	s.Drops += o.Drops
	s.Dups += o.Dups
	s.Reorders += o.Reorders
	s.Truncates += o.Truncates
	s.Delays += o.Delays
	s.Cuts += o.Cuts
	s.DialFails += o.DialFails
}

// Stats returns injected-fault counters.
func (n *Net) Stats() NetStats {
	return NetStats{
		Drops: n.drops.Load(), Dups: n.dups.Load(), Reorders: n.reorders.Load(),
		Truncates: n.truncates.Load(), Delays: n.delays.Load(), Cuts: n.cuts.Load(),
		DialFails: n.dialFails.Load(),
	}
}

// Listener returns the accept side of the network.
func (n *Net) Listener() net.Listener { return (*netListener)(n) }

// Dial connects to the network's listener, possibly failing per the
// schedule. Each successful dial yields a fresh faulty connection pair.
func (n *Net) Dial() (net.Conn, error) {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil, ErrNetClosed
	}
	fail := n.profile.DialFailProb > 0 && n.dialRand.Float64() < n.profile.DialFailProb
	cseq := n.dirSeq
	n.dirSeq += 2
	n.mu.Unlock()
	if fail {
		n.dialFails.Add(1)
		return nil, ErrDialFault
	}
	client, server := n.newPair(cseq)
	// The hand-off must hold mu: Close closes the accept channel under
	// it, and an unguarded send would race a concurrent Close (send on
	// closed channel). The send never blocks — it has a default arm.
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		client.Close()
		server.Close()
		return nil, ErrNetClosed
	}
	select {
	case n.accept <- server:
		return client, nil
	default:
		client.Close()
		server.Close()
		return nil, errors.New("fault: connection refused (accept backlog full)")
	}
}

// newPair builds the two faulty endpoints of one connection. Each
// direction gets its own decision stream seeded from the profile seed
// and the direction's global sequence number, so a direction's fault
// sequence is a pure function of the seed and its dial order.
func (n *Net) newPair(seq int64) (client, server *NetConn) {
	c2s := newDir(n, n.profile.Seed^(seq+1)*0x1E3779B97F4A7C15)
	s2c := newDir(n, n.profile.Seed^(seq+2)*0x42B2AE3D27D4EB4F)
	client = &NetConn{net: n, out: c2s, in: s2c, local: "client", remote: "server"}
	server = &NetConn{net: n, out: s2c, in: c2s, local: "server", remote: "client"}
	client.peer, server.peer = server, client
	return client, server
}

// Close shuts the network down: pending and future dials and accepts
// fail.
func (n *Net) Close() error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if !n.closed {
		n.closed = true
		close(n.accept)
	}
	return nil
}

type netListener Net

func (l *netListener) Accept() (net.Conn, error) {
	c, ok := <-l.accept
	if !ok {
		return nil, ErrNetClosed
	}
	return c, nil
}

func (l *netListener) Close() error   { return (*Net)(l).Close() }
func (l *netListener) Addr() net.Addr { return netAddr("simnet") }

type netAddr string

func (a netAddr) Network() string { return "simnet" }
func (a netAddr) String() string  { return string(a) }

// netDir is one direction of a connection: a queue of fault-resolved
// segments pumped into a net.Pipe, whose far end the receiver reads
// (inheriting the pipe's deadline support).
type netDir struct {
	net *Net
	rng *rand.Rand // guarded by mu; decisions are per-direction deterministic

	mu     sync.Mutex
	cond   *sync.Cond
	q      []segment
	closed bool

	pw net.Conn // pump writes here
	pr net.Conn // receiver reads here
}

type segment struct {
	data  []byte
	delay time.Duration
}

func newDir(n *Net, seed int64) *netDir {
	pr, pw := net.Pipe()
	d := &netDir{net: n, rng: rand.New(rand.NewSource(seed)), pw: pw, pr: pr}
	d.cond = sync.NewCond(&d.mu)
	go d.pump()
	return d
}

// send outcomes: delivered (per schedule), connection cut in place of
// delivery, or a torn prefix delivered before the cut.
const (
	sendOK = iota
	sendCut
	sendTorn
)

// send applies the schedule's per-segment decisions and enqueues the
// resulting deliveries.
func (d *netDir) send(b []byte) int {
	p := d.net.profile
	data := append([]byte(nil), b...)
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return sendCut
	}
	// One uniform draw per fault class per segment keeps the stream's
	// decision sequence stable as probabilities change across profiles.
	drop := p.DropProb > 0 && d.rng.Float64() < p.DropProb
	dup := p.DupProb > 0 && d.rng.Float64() < p.DupProb
	reorder := p.ReorderProb > 0 && d.rng.Float64() < p.ReorderProb
	trunc := p.TruncateProb > 0 && d.rng.Float64() < p.TruncateProb
	var delay time.Duration
	if p.DelayProb > 0 && d.rng.Float64() < p.DelayProb {
		delay = time.Duration(d.rng.Int63n(int64(p.maxDelay()) + 1))
	}
	cut := p.CutProb > 0 && d.rng.Float64() < p.CutProb
	truncAt := 0
	if trunc && len(data) > 1 {
		truncAt = 1 + d.rng.Intn(len(data)-1)
	}

	switch {
	case cut:
		d.mu.Unlock()
		d.net.cuts.Add(1)
		return sendCut
	case trunc:
		// Deliver a strict prefix, then die: the peer sees a torn frame
		// and then a dead connection.
		d.net.truncates.Add(1)
		d.q = append(d.q, segment{data: data[:truncAt], delay: delay})
		d.cond.Signal()
		d.mu.Unlock()
		return sendTorn
	case drop:
		d.mu.Unlock()
		d.net.drops.Add(1)
		return sendOK
	}
	if delay > 0 {
		d.net.delays.Add(1)
	}
	seg := segment{data: data, delay: delay}
	if reorder && len(d.q) > 0 {
		d.net.reorders.Add(1)
		d.q = append(d.q[:len(d.q)-1], seg, d.q[len(d.q)-1])
	} else {
		d.q = append(d.q, seg)
	}
	if dup {
		d.net.dups.Add(1)
		d.q = append(d.q, segment{data: append([]byte(nil), data...)})
	}
	d.cond.Signal()
	d.mu.Unlock()
	return sendOK
}

// pump delivers queued segments into the pipe in order, honoring
// injected delays. It exits when the direction closes.
func (d *netDir) pump() {
	for {
		d.mu.Lock()
		for len(d.q) == 0 && !d.closed {
			d.cond.Wait()
		}
		if len(d.q) == 0 && d.closed {
			d.mu.Unlock()
			d.pw.Close()
			return
		}
		seg := d.q[0]
		d.q = d.q[1:]
		d.mu.Unlock()
		if seg.delay > 0 {
			time.Sleep(seg.delay)
		}
		if _, err := d.pw.Write(seg.data); err != nil {
			return // receiver closed; queue is lost, like in-flight packets
		}
	}
}

// close tears the direction down. With drain, queued segments (the
// torn prefix) are still delivered before the receiver sees EOF; the
// pump closes the pipe once the queue empties. Without it, undelivered
// segments are lost like in-flight packets.
func (d *netDir) close(drain bool) {
	d.mu.Lock()
	if !drain {
		d.q = nil
	}
	d.closed = true
	d.cond.Broadcast()
	d.mu.Unlock()
	if !drain {
		d.pw.Close()
		d.pr.Close()
	}
}

// NetConn is one endpoint of a faulty in-memory connection. Reads come
// from the incoming direction's pipe (full deadline support); each
// Write is one segment run through the outgoing direction's fault
// schedule. Closing either endpoint, or any cut/truncate decision,
// kills both directions — connection loss is always bilateral, as with
// a TCP reset.
type NetConn struct {
	net           *Net
	in, out       *netDir
	peer          *NetConn
	local, remote string
	closed        atomic.Bool
}

// Read reads delivered bytes, honoring the read deadline.
func (c *NetConn) Read(b []byte) (int, error) {
	return c.in.pr.Read(b)
}

// Write runs one segment through the outgoing fault schedule. The
// buffered pump makes writes non-blocking; a cut or truncation closes
// the connection and fails this and all subsequent writes.
func (c *NetConn) Write(b []byte) (int, error) {
	if c.closed.Load() {
		return 0, ErrNetClosed
	}
	switch c.out.send(b) {
	case sendOK:
		return len(b), nil
	case sendTorn:
		c.closeTorn()
		return 0, ErrNetClosed
	default:
		c.closeReset()
		return 0, ErrNetClosed
	}
}

// Close closes the connection like a graceful FIN: segments already
// accepted for the outgoing direction still reach the peer (then EOF),
// while the incoming direction stops immediately.
func (c *NetConn) Close() error {
	if c.closed.Swap(true) {
		return nil
	}
	c.in.close(false)
	c.out.close(true)
	if c.peer != nil {
		c.peer.closed.Store(true)
	}
	return nil
}

// closeReset severs both directions abruptly — a connection reset: any
// undelivered segments are lost. Used for injected cuts.
func (c *NetConn) closeReset() {
	if c.closed.Swap(true) {
		return
	}
	c.in.close(false)
	c.out.close(false)
	if c.peer != nil {
		c.peer.closed.Store(true)
	}
}

// closeTorn closes after a truncation decision: the outgoing direction
// drains so the peer reads the torn prefix before EOF.
func (c *NetConn) closeTorn() {
	if c.closed.Swap(true) {
		return
	}
	c.in.close(false)
	c.out.close(true)
	if c.peer != nil {
		c.peer.closed.Store(true)
	}
}

// LocalAddr identifies the endpoint.
func (c *NetConn) LocalAddr() net.Addr { return netAddr(fmt.Sprintf("simnet-%s", c.local)) }

// RemoteAddr identifies the peer endpoint.
func (c *NetConn) RemoteAddr() net.Addr { return netAddr(fmt.Sprintf("simnet-%s", c.remote)) }

// SetDeadline sets both read and write deadlines.
func (c *NetConn) SetDeadline(t time.Time) error {
	return c.in.pr.SetReadDeadline(t)
}

// SetReadDeadline bounds future Reads.
func (c *NetConn) SetReadDeadline(t time.Time) error {
	return c.in.pr.SetReadDeadline(t)
}

// SetWriteDeadline is a no-op: writes buffer into the pump and never
// block.
func (c *NetConn) SetWriteDeadline(t time.Time) error { return nil }
