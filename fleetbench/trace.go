package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// spanRec is one finished span. Times are nanoseconds since the pass
// started; Parent 0 marks a root (a window, or a call between windows).
type spanRec struct {
	Run    string `json:"run"`
	Window int    `json:"window"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps the spans of one traced pass in memory. The client
// goroutine opens nested spans (window, then the API call, Step or
// checkpoint inside it); shard calls made on the coordinator's
// goroutines attach to whichever client span is open. All methods are
// no-ops on a nil tracer, which is what untraced passes carry.
type tracer struct {
	run    string
	t0     time.Time
	next   atomic.Uint64
	window atomic.Int64
	cur    atomic.Pointer[openSpan]

	mu    sync.Mutex
	spans []spanRec
}

type openSpan struct {
	tr     *tracer
	rec    spanRec
	prev   *openSpan
	pushed bool
}

func newTracer(run string) *tracer { return &tracer{run: run, t0: time.Now()} }

func (t *tracer) setWindow(w int) {
	if t != nil {
		t.window.Store(int64(w))
	}
}

func (t *tracer) open(name string, push bool) *openSpan {
	if t == nil {
		return nil
	}
	parent := t.cur.Load()
	sp := &openSpan{tr: t, pushed: push, prev: parent, rec: spanRec{
		Run:    t.run,
		Window: int(t.window.Load()),
		ID:     t.next.Add(1),
		Name:   name,
		Start:  int64(time.Since(t.t0)),
	}}
	if parent != nil {
		sp.rec.Parent = parent.rec.ID
	}
	if push {
		t.cur.Store(sp)
	}
	return sp
}

// start opens a span on the client goroutine; spans opened until it
// ends become its children.
func (t *tracer) start(name string) *openSpan { return t.open(name, true) }

// startChild opens a leaf span under the current client span; safe from
// any goroutine.
func (t *tracer) startChild(name string) *openSpan { return t.open(name, false) }

func (s *openSpan) end() {
	if s == nil {
		return
	}
	s.rec.End = int64(time.Since(s.tr.t0))
	if s.pushed {
		s.tr.cur.Store(s.prev)
	}
	s.tr.mu.Lock()
	s.tr.spans = append(s.tr.spans, s.rec)
	s.tr.mu.Unlock()
}

// selfRow is one layer of the self-time table.
type selfRow struct {
	Layer   string  `json:"layer"`
	Spans   int     `json:"spans"`
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms"`
	// WallShare is SelfMs over the pass's measured wall time.
	WallShare float64 `json:"wall_share"`
}

// selfTimes aggregates span self time by layer (span name): a span's
// duration minus the union of the intervals its children cover.
// Children of one span may overlap (shard calls fan out in parallel),
// so the union, not the sum, is subtracted.
func selfTimes(spans []spanRec, wallNs int64) []selfRow {
	children := make(map[uint64][]spanRec)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	rows := make(map[string]*selfRow)
	for _, s := range spans {
		r := rows[s.Name]
		if r == nil {
			r = &selfRow{Layer: s.Name}
			rows[s.Name] = r
		}
		dur := s.End - s.Start
		self := dur - covered(s, children[s.ID])
		r.Spans++
		r.TotalMs += float64(dur) / 1e6
		r.SelfMs += float64(self) / 1e6
	}
	out := make([]selfRow, 0, len(rows))
	for _, r := range rows {
		if wallNs > 0 {
			r.WallShare = r.SelfMs * 1e6 / float64(wallNs)
		}
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SelfMs > out[j].SelfMs })
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent.
func covered(parent spanRec, kids []spanRec) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, v := range iv {
		if i == 0 || v[0] > curHi {
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
			continue
		}
		curHi = max(curHi, v[1])
	}
	return total + curHi - curLo
}

// writeSpans writes the spans as JSON lines, in start order.
func writeSpans(path string, spans []spanRec) error {
	sorted := append([]spanRec(nil), spans...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Start < sorted[j].Start })
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range sorted {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// reset drops the spans recorded so far (those of set-up).
func (t *tracer) reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = nil
	t.mu.Unlock()
}

// done returns the recorded spans.
func (t *tracer) done() []spanRec {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]spanRec(nil), t.spans...)
}
