package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"opdelta/internal/obs"
)

// span is one harness-side span: a layer boundary the harness can see
// from outside the program.
type span struct {
	layer, name string
	// seq is the op seq the span belongs to (the id every span of one
	// statement shares); 0 for spans not tied to one op.
	seq        uint64
	parent     int // index into the recorder's spans, -1 for a root
	start, end int64
}

// recorder keeps spans in a preallocated buffer until the window has
// closed. A nil recorder records nothing, which is how the untraced run
// leaves every wrapper pass-through.
type recorder struct {
	mu    sync.Mutex
	spans []span
}

func newRecorder(capacity int) *recorder {
	return &recorder{spans: make([]span, 0, capacity)}
}

func (r *recorder) span(layer, name string, seq uint64, start, end time.Time) {
	if r == nil {
		return
	}
	r.add(span{layer: layer, name: name, seq: seq, parent: -1, start: start.UnixNano(), end: end.UnixNano()})
}

func (r *recorder) add(s span) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, s)
	return len(r.spans) - 1
}

// maxTraceOps bounds how many statements' lifecycles are written to the
// trace file; metrics use every sample regardless.
const maxTraceOps = 4096

// addLifecycles turns the applier-side lifecycle records and the
// harness's own stamps into one span tree per statement:
//
//	op [commit → durable at warehouse]
//	  ship    [commit → enqueued on the topic]   opdelta log read, encode, wire, queue append
//	  queue   [enqueued → dequeued]              transport
//	  lock    [dequeued → locked]                txn
//	  apply   [locked → applied]                 warehouse + engine
//	  durable [applied → committed]              wal
//
// The op span's self time is what none of these cover: the applier's
// queue ack and the observer's polling resolution.
func (r *recorder) addLifecycles(l *load, win *window, recs []obs.TraceRecord, pr *probes) {
	ops := l.ops
	n := 0
	for i := len(recs) - 1; i >= 0 && n < maxTraceOps; i-- { // recs are newest first
		rec := recs[i]
		idx := int(rec.Seq) - 1
		if idx < 0 || idx >= l.issued || !win.contains(ops.durable[idx]) {
			continue
		}
		n++
		root := r.add(span{layer: "harness", name: "op", seq: rec.Seq, parent: -1, start: ops.ref[idx], end: ops.durable[idx]})
		child := func(layer, name string, from, to int64) {
			if from != 0 && to >= from {
				r.add(span{layer: layer, name: name, seq: rec.Seq, parent: root, start: from, end: to})
			}
		}
		if enq := pr.enqueuedAt(idx); enq != 0 {
			child("netrepl", "ship", ops.ref[idx], enq)
			child("transport", "queue", enq, rec.Dequeued)
		}
		child("txn", "lock", rec.Dequeued, rec.Locked)
		child("warehouse", "apply", rec.Locked, rec.Applied)
		child("wal", "durable", rec.Applied, rec.Durable)
	}
}

// selfTimes returns each span's duration minus the part of it that its
// child spans cover.
func (r *recorder) selfTimes() []int64 {
	children := make(map[int][][2]int64)
	for _, s := range r.spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], [2]int64{s.start, s.end})
		}
	}
	self := make([]int64, len(r.spans))
	for i, s := range r.spans {
		self[i] = s.end - s.start
		iv := children[i]
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		covered, hi := int64(0), s.start
		for _, c := range iv {
			lo, end := c[0], c[1]
			if lo < hi {
				lo = hi
			}
			if end > s.end {
				end = s.end
			}
			if end > lo {
				covered += end - lo
				hi = end
			}
		}
		self[i] -= covered
	}
	return self
}

// traceEvent is one Chrome trace-event ("X" = complete event).
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // µs
	Dur  float64        `json:"dur"` // µs
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChromeTrace writes the spans as Chrome trace-event JSON (load it
// in chrome://tracing or Perfetto). Each layer gets its own track.
func (r *recorder) writeChromeTrace(path string, progSpans []obs.SpanRecord) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	tids := map[string]int{}
	tid := func(layer string) int {
		if _, ok := tids[layer]; !ok {
			tids[layer] = len(tids) + 1
		}
		return tids[layer]
	}
	var origin int64
	if len(r.spans) > 0 {
		origin = r.spans[0].start
		for _, s := range r.spans {
			if s.start < origin {
				origin = s.start
			}
		}
	}
	self := r.selfTimes()
	w.WriteString(`{"traceEvents":[`)
	enc := json.NewEncoder(w)
	first := true
	emit := func(ev traceEvent) error {
		if !first {
			w.WriteString(",")
		}
		first = false
		return enc.Encode(ev)
	}
	for i, s := range r.spans {
		args := map[string]any{"self_us": float64(self[i]) / 1e3}
		if s.seq != 0 {
			args["seq"] = s.seq
		}
		if s.parent >= 0 {
			args["parent"] = r.spans[s.parent].name
		}
		if err := emit(traceEvent{Name: s.name, Cat: s.layer, Ph: "X",
			Ts: float64(s.start-origin) / 1e3, Dur: float64(s.end-s.start) / 1e3,
			Pid: 1, Tid: tid(s.layer), Args: args}); err != nil {
			f.Close()
			return err
		}
	}
	// The program's own sampled batch spans (Shipper/Server/Applier
	// Spans), on a second process row so they do not mix with the
	// harness's view.
	for _, s := range progSpans {
		if err := emit(traceEvent{Name: s.Name, Cat: "program", Ph: "X",
			Ts: float64(s.StartUnixNs-origin) / 1e3, Dur: float64(s.EndUnixNs-s.StartUnixNs) / 1e3,
			Pid: 2, Tid: tid("program:" + s.Name), Args: map[string]any{"seq": s.Seq, "trace": s.TraceID}}); err != nil {
			f.Close()
			return err
		}
	}
	w.WriteString(`]}`)
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
