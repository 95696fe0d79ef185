package main

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// instance is a set-up workload: its fixtures are built and it is ready
// to run ops.
type instance interface {
	// op runs one op. It calls m.begin and m.end around the part of the
	// op that is timed; input generation and output checks stay outside.
	// An error means the op failed or its output was wrong.
	op(m *opMeter) error
	// finish runs the checks that need the whole run (nil if none).
	finish() error
	// close releases the fixtures.
	close() error
}

// phaseHooks is implemented by instances that read layer counters over
// a traced phase; they report them as probeOp attributes.
type phaseHooks interface {
	phaseStart()
	phaseEnd(tr *tracer)
}

// opMeter times one op and carries its trace context.
type opMeter struct {
	op     int
	tr     *tracer // nil when untraced
	rt     *runtimeReader
	single bool // one caller: CPU and allocation are bracketed per op
	root   openSpan

	t0     time.Time
	cpu0   time.Duration
	alloc0 uint64

	timed time.Duration
	cpu   time.Duration
	alloc uint64
	ended bool
}

func (m *opMeter) begin() {
	if m.single {
		m.cpu0 = cpuTime()
		m.alloc0 = m.rt.allocBytes()
	}
	m.root = m.tr.open(m.op, 0, "op")
	m.t0 = time.Now()
}

func (m *opMeter) end() {
	m.timed = time.Since(m.t0)
	m.root.close()
	if m.single {
		m.cpu = cpuTime() - m.cpu0
		m.alloc = m.rt.allocBytes() - m.alloc0
	}
	m.ended = true
}

// traced reports whether this op records spans.
func (m *opMeter) traced() bool { return m.tr != nil }

// span opens a child of the op's root span.
func (m *opMeter) span(name string) openSpan { return m.tr.open(m.op, m.root.id(), name) }

// attr attaches a number to the op in the trace.
func (m *opMeter) attr(name string, v float64) { m.tr.attr(m.op, name, v) }

// phase is what one measured phase observed.
type phase struct {
	callers int
	ops     int // attempted
	failed  int
	lat     []float64     // ms, successful ops
	timed   time.Duration // sum of timed op durations over all callers
	wall    time.Duration
	cpu     time.Duration
	alloc   uint64
	rt0     runtimeSample
	rt1     runtimeSample
	errs    []error
}

// phaseOpts bounds a phase: exactly count ops when count > 0, else ops
// until dur has passed and at least minOps ops have completed.
type phaseOpts struct {
	count    int
	dur      time.Duration
	minOps   int
	deadline time.Time // the phase is abandoned, failing, past this
	tr       *tracer
}

var errDeadline = errors.New("run deadline reached before the phase completed")

// runPhase runs ops on callers closed-loop goroutines.
func runPhase(inst instance, callers int, o phaseOpts) *phase {
	p := &phase{callers: callers}
	rt := newRuntimeReader()
	var next atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	if h, ok := inst.(phaseHooks); ok && o.tr != nil {
		h.phaseStart()
		defer h.phaseEnd(o.tr)
	}
	p.rt0 = rt.read()
	cpu0 := cpuTime()
	start := time.Now()
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m := &opMeter{tr: o.tr, rt: newRuntimeReader(), single: callers == 1}
			for {
				i := int(next.Add(1) - 1)
				if o.count > 0 {
					if i >= o.count {
						return
					}
				} else if i >= o.minOps && time.Since(start) >= o.dur {
					return
				}
				if time.Now().After(o.deadline) {
					mu.Lock()
					p.errs = append(p.errs, errDeadline)
					mu.Unlock()
					return
				}
				*m = opMeter{op: i, tr: o.tr, rt: m.rt, single: m.single}
				err := inst.op(m)
				if err == nil && !m.ended {
					err = errors.New("op never ended its timed window")
				}
				mu.Lock()
				p.ops++
				p.timed += m.timed
				p.cpu += m.cpu
				p.alloc += m.alloc
				if err != nil {
					p.failed++
					if len(p.errs) < 5 {
						p.errs = append(p.errs, fmt.Errorf("op %d: %w", i, err))
					}
				} else {
					p.lat = append(p.lat, float64(m.timed)/float64(time.Millisecond))
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	p.wall = time.Since(start)
	p.rt1 = rt.read()
	if callers > 1 {
		// Concurrent callers cannot split process counters per op, so
		// the whole window is charged; it holds only ops.
		p.cpu = cpuTime() - cpu0
		p.alloc = p.rt1.allocBytes - p.rt0.allocBytes
	}
	return p
}

// completed is the number of ops that succeeded.
func (p *phase) completed() int { return p.ops - p.failed }

// busy is the measured time: the callers' summed timed windows divided
// by the caller count, which leaves out per-op input generation and
// checks (only fault-campaign has any).
func (p *phase) busy() time.Duration { return p.timed / time.Duration(p.callers) }
