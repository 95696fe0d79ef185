package main

import (
	"bufio"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// probeOp is the op id of spans recorded outside any op (side probes).
const probeOp = -1

// span is one timed interval recorded by the benchmark around a call
// into a layer. Spans of one op share op; parent is the id of the span
// that caused this one (0 for an op's root).
type span struct {
	Op     int    `json:"op"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// attr is a number an op reported about itself (a count or a duration
// read from a layer's result), kept with the trace.
type attr struct {
	Op    int     `json:"op"`
	Name  string  `json:"attr"`
	Value float64 `json:"value"`
}

// tracer keeps spans and attributes in memory until the run ends. A nil
// *tracer records nothing, so untraced code paths need no checks.
type tracer struct {
	t0    time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
	attrs []attr
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// now is the trace clock: nanoseconds since the tracer started.
func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// open starts a span; finish it with close.
func (t *tracer) open(op int, parent int64, name string) openSpan {
	if t == nil {
		return openSpan{}
	}
	return openSpan{t: t, s: span{Op: op, ID: t.next.Add(1), Parent: parent, Name: name, Start: t.now()}}
}

// record adds a span that ended now and lasted d (for intervals a layer
// reports after the fact, such as server hook latencies).
func (t *tracer) record(op int, parent int64, name string, d time.Duration) {
	if t == nil {
		return
	}
	end := t.now()
	t.add(span{Op: op, ID: t.next.Add(1), Parent: parent, Name: name, Start: end - int64(d), End: end})
}

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) attr(op int, name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.attrs = append(t.attrs, attr{Op: op, Name: name, Value: v})
	t.mu.Unlock()
}

type openSpan struct {
	t *tracer
	s span
}

// id is the span's id, for use as a child's parent (0 when untraced).
func (o openSpan) id() int64 { return o.s.ID }

func (o openSpan) close() {
	if o.t == nil {
		return
	}
	o.s.End = o.t.now()
	o.t.add(o.s)
}

// selfTimes returns each span's duration minus the length of the union
// of its children's intervals (clipped to the span), indexed like spans.
// Concurrent children therefore count once, not once per child.
func selfTimes(spans []span) []int64 {
	type key struct {
		op int
		id int64
	}
	children := map[key][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			k := key{s.Op, s.Parent}
			children[k] = append(children[k], [2]int64{s.Start, s.End})
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		out[i] = s.dur() - unionWithin(children[key{s.Op, s.ID}], s.Start, s.End)
	}
	return out
}

// unionWithin is the total length of the union of ivs clipped to [lo, hi].
func unionWithin(ivs [][2]int64, lo, hi int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	c := make([][2]int64, 0, len(ivs))
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if a < b {
			c = append(c, [2]int64{a, b})
		}
	}
	sort.Slice(c, func(i, j int) bool { return c[i][0] < c[j][0] })
	var total, curA, curB int64
	for i, iv := range c {
		switch {
		case i == 0:
			curA, curB = iv[0], iv[1]
		case iv[0] > curB:
			total += curB - curA
			curA, curB = iv[0], iv[1]
		case iv[1] > curB:
			curB = iv[1]
		}
	}
	if len(c) > 0 {
		total += curB - curA
	}
	return total
}

// write stores the trace as gzipped JSON lines: the run record first,
// then every span and attribute.
func (t *tracer) write(path string, record any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw := gzip.NewWriter(f)
	w := bufio.NewWriter(zw)
	enc := json.NewEncoder(w)
	if err := enc.Encode(record); err != nil {
		f.Close()
		return err
	}
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	for _, a := range t.attrs {
		if err := enc.Encode(a); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("trace: flush %s: %w", path, err)
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return fmt.Errorf("trace: compress %s: %w", path, err)
	}
	return f.Close()
}
