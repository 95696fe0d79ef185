package gate

import (
	"fmt"

	"repro/internal/signal"
)

// Fault is a single stuck-at fault on a net.
type Fault struct {
	Net   NetID
	Stuck signal.Bit // B0 for stuck-at-0, B1 for stuck-at-1
}

// String renders the fault in the paper's symbolic spelling, relative to
// the given netlist (e.g. "I3sa0").
func (f Fault) String() string {
	sa := "sa?"
	switch f.Stuck {
	case signal.B0:
		sa = "sa0"
	case signal.B1:
		sa = "sa1"
	}
	return fmt.Sprintf("net%d%s", f.Net, sa)
}

// Symbol renders the fault with the net's name, e.g. "I3sa0".
func (f Fault) Symbol(n *Netlist) string {
	sa := "sa?"
	switch f.Stuck {
	case signal.B0:
		sa = "sa0"
	case signal.B1:
		sa = "sa1"
	}
	return n.NetName(f.Net) + sa
}

// Lanes is the number of independent machines one evaluation carries:
// every net holds one bit per lane in each of its two planes.
const Lanes = 64

// Planes is one net's two-rail value across the 64 lanes. A lane reads
// 1 when only its One bit is set, 0 when only its Zero bit is set, X
// when neither is, and Z when both are. Gate inputs read Z as X and
// gates never produce Z, which reproduces signal's four-valued tables.
type Planes struct {
	One, Zero uint64
}

// broadcast holds each logic level replicated across every lane,
// indexed by Bit&3.
var broadcast = [4]Planes{
	signal.B0: {Zero: ^uint64(0)},
	signal.B1: {One: ^uint64(0)},
	signal.BX: {},
	signal.BZ: {One: ^uint64(0), Zero: ^uint64(0)},
}

// decode maps a lane's (one | zero<<1) bit pair back to its level.
var decode = [4]signal.Bit{signal.BX, signal.B1, signal.B0, signal.BZ}

// Bit returns the level of one lane.
func (p Planes) Bit(lane int) signal.Bit {
	return decode[(p.One>>uint(lane))&1|(p.Zero>>uint(lane)&1)<<1]
}

// Known1 returns the lanes holding a known 1.
func (p Planes) Known1() uint64 { return p.One &^ p.Zero }

// Known0 returns the lanes holding a known 0.
func (p Planes) Known0() uint64 { return p.Zero &^ p.One }

// normalized reads p as a gate input: Z lanes become X.
func (p Planes) normalized() Planes { return Planes{p.Known1(), p.Known0()} }

// PackLanes transposes up to Lanes patterns of width bits (each in
// Inputs() order) into per-input planes for EvalPlanes: lane l of
// input i holds patterns[l][i]. Lanes past len(patterns) read X.
func PackLanes(patterns [][]signal.Bit, width int) []Planes {
	if len(patterns) > Lanes {
		panic(fmt.Sprintf("gate: PackLanes of %d patterns, max %d", len(patterns), Lanes))
	}
	dst := make([]Planes, width)
	for l, p := range patterns {
		bit := uint64(1) << uint(l)
		for i, b := range p[:width] {
			v := broadcast[b&3]
			dst[i].One |= v.One & bit
			dst[i].Zero |= v.Zero & bit
		}
	}
	return dst
}

// force is the per-lane stuck-at override of one net: lanes in mask take
// the lane bits of one and zero.
type force struct {
	mask, one, zero uint64
}

// Eval computes the primary-output values for the given primary-input
// values (in Inputs() order). It allocates a fresh state; use an
// Evaluator for repeated pattern simulation.
func (n *Netlist) Eval(inputs []signal.Bit) ([]signal.Bit, error) {
	ev, err := n.NewEvaluator()
	if err != nil {
		return nil, err
	}
	return ev.Eval(inputs)
}

// Evaluator holds reusable evaluation state for one netlist, amortizing
// allocation across patterns. It evaluates 64 independent machines
// ("lanes") per sweep over the netlist's compiled program: Eval
// broadcasts one pattern to every lane, EvalPlanes loads a different
// pattern per lane, and SetLaneFault gives each lane its own stuck-at
// faults. The single-pattern API (Eval, Value, OutputWord, Toggles)
// reports lane 0. Evaluators are not safe for concurrent use; create one
// per goroutine.
type Evaluator struct {
	n    *Netlist
	vals []Planes
	in   []Planes
	out  []signal.Bit

	// stuck-at state: per-net lane overrides, and the nets carrying one.
	force  []force
	forced []NetID

	// bridging-fault state: wired-AND pairs, each net's peer (first
	// bridge wins, -1 for none), and the per-pass driven values of
	// bridged nets (as opposed to their resolved values), valid where
	// drivenPass equals the current pass.
	bridges    []Bridge
	peer       []int32
	driven     []Planes
	drivenPass []uint32
	pass       uint32

	// toggle counting state (lane 0), allocated when CountToggle is
	// first seen set
	prev        []Planes
	toggles     []uint64
	havePrev    bool
	CountToggle bool
}

// NewEvaluator builds (levelizes and compiles) the netlist and returns a
// fresh evaluator over it.
func (n *Netlist) NewEvaluator() (*Evaluator, error) {
	if err := n.build(); err != nil {
		return nil, err
	}
	e := &Evaluator{
		n:    n,
		vals: make([]Planes, len(n.nets)),
		in:   make([]Planes, len(n.inputs)),
		out:  make([]signal.Bit, len(n.outputs)),
	}
	// Nets start at logic low, like a powered-up-and-reset net.
	for i := range e.vals {
		e.vals[i] = broadcast[signal.B0]
	}
	return e, nil
}

// SetFault injects a stuck-at fault in every lane for subsequent
// evaluations, replacing any earlier fault on the same net.
func (e *Evaluator) SetFault(f Fault) { e.setForce(f, ^uint64(0)) }

// SetLaneFault injects a stuck-at fault in one lane only, replacing any
// earlier fault of that lane on the same net.
func (e *Evaluator) SetLaneFault(lane int, f Fault) {
	if lane < 0 || lane >= Lanes {
		panic(fmt.Sprintf("gate: lane %d out of range", lane))
	}
	e.setForce(f, 1<<uint(lane))
}

func (e *Evaluator) setForce(f Fault, lanes uint64) {
	e.n.checkNet(f.Net)
	if e.force == nil {
		e.force = make([]force, len(e.n.nets))
	}
	fo := &e.force[f.Net]
	if fo.mask == 0 {
		e.forced = append(e.forced, f.Net)
	}
	v := broadcast[f.Stuck&3]
	fo.mask |= lanes
	fo.one = fo.one&^lanes | v.One&lanes
	fo.zero = fo.zero&^lanes | v.Zero&lanes
}

// ClearFaults removes all injected faults.
func (e *Evaluator) ClearFaults() {
	for _, id := range e.forced {
		e.force[id] = force{}
	}
	e.forced = e.forced[:0]
}

// Bridge is a wired-AND bridging fault between two nets: both nets
// assume the conjunction of their driven values — the classic model for
// a resistive short where the low level wins. This is one of the
// "general fault models" the paper notes the protocol extends to.
type Bridge struct {
	A, B NetID
}

// SetBridge installs a wired-AND bridging fault in every lane for
// subsequent evaluations. Bridges between nets on a combinational
// feedback path are resolved by bounded iteration and may conservatively
// report X. A net in several bridges is paired with the peer of the
// first one.
func (e *Evaluator) SetBridge(b Bridge) {
	e.n.checkNet(b.A)
	e.n.checkNet(b.B)
	if e.peer == nil {
		e.peer = make([]int32, len(e.n.nets))
		for i := range e.peer {
			e.peer[i] = -1
		}
		e.driven = make([]Planes, len(e.n.nets))
		e.drivenPass = make([]uint32, len(e.n.nets))
	}
	if e.peer[b.A] < 0 {
		e.peer[b.A] = int32(b.B)
	}
	if e.peer[b.B] < 0 {
		e.peer[b.B] = int32(b.A)
	}
	e.bridges = append(e.bridges, b)
}

// ClearBridges removes all bridging faults.
func (e *Evaluator) ClearBridges() {
	for _, b := range e.bridges {
		e.peer[b.A] = -1
		e.peer[b.B] = -1
	}
	e.bridges = e.bridges[:0]
}

// Eval evaluates one input pattern, broadcast to every lane, and returns
// lane 0's primary-output values. The returned slice is reused across
// calls; copy it to retain it. With CountToggle set, lane 0's per-net
// known-value transitions versus the previous evaluation are accumulated
// (the raw material of toggle-based power estimation).
//
//gocad:noalloc
func (e *Evaluator) Eval(inputs []signal.Bit) ([]signal.Bit, error) {
	if len(inputs) != len(e.in) {
		return nil, e.widthError(len(inputs))
	}
	for i, b := range inputs {
		e.in[i] = broadcast[b&3]
	}
	e.run()
	for i, id := range e.n.outputs {
		e.out[i] = e.vals[id].Bit(0)
	}
	return e.out, nil
}

// EvalPlanes evaluates one pattern per lane, given as per-input planes
// (see PackLanes). Read the results with OutputPlanes.
//
//gocad:noalloc
func (e *Evaluator) EvalPlanes(in []Planes) error {
	if len(in) != len(e.in) {
		return e.widthError(len(in))
	}
	copy(e.in, in)
	e.run()
	return nil
}

//go:noinline
func (e *Evaluator) widthError(got int) error {
	return fmt.Errorf("gate: %s: got %d input values, want %d", e.n.Name, got, len(e.n.inputs))
}

// run evaluates the loaded input planes: undriven nets read X, bridged
// nets start pessimistic and iterate to the wired-AND fixpoint, and lane
// 0's toggles are counted.
//
//gocad:noalloc
func (e *Evaluator) run() {
	n := e.n
	if e.CountToggle && e.toggles == nil {
		e.startToggles()
	}
	if e.CountToggle && e.havePrev {
		copy(e.prev, e.vals)
	}
	for _, id := range n.undriven {
		e.vals[id] = Planes{}
	}
	if len(e.bridges) == 0 {
		e.sweep(false)
	} else {
		// Bridged nets start pessimistic, then bounded iteration reaches
		// the wired-AND fixpoint (two passes suffice for feed-forward
		// bridges; a third catches chained pairs).
		for _, b := range e.bridges {
			e.vals[b.A] = Planes{}
			e.vals[b.B] = Planes{}
		}
		for iter := 0; iter < 3; iter++ {
			e.pass++
			e.sweep(true)
		}
	}
	if e.CountToggle {
		if e.havePrev {
			for i, cur := range e.vals {
				p := e.prev[i]
				e.toggles[i] += (cur.Known1()&p.Known0() | cur.Known0()&p.Known1()) & 1
			}
		}
		e.havePrev = true
	}
}

//go:noinline
func (e *Evaluator) startToggles() {
	e.prev = make([]Planes, len(e.n.nets))
	e.toggles = make([]uint64, len(e.n.nets))
}

// sweep runs one levelized pass over the compiled program: primary-input
// assignment, then every gate in topological order, each net followed by
// its stuck-at override and (when bridged) its wired-AND resolution.
//
//gocad:noalloc
func (e *Evaluator) sweep(bridged bool) {
	n := e.n
	vals := e.vals
	faulted := len(e.forced) > 0
	for i, id := range n.inputs {
		v := e.in[i]
		if faulted {
			v = e.force[id].apply(v)
		}
		if bridged {
			v = e.resolveBridged(id, v)
		}
		vals[id] = v
	}
	fanin := n.fanin
	for _, o := range n.prog {
		in := fanin[o.lo:o.hi]
		var v Planes
		switch o.kind {
		case Buf, Not:
			v = vals[in[0]].normalized()
		case And, Nand:
			v.One = ^uint64(0)
			for _, id := range in {
				a := vals[id]
				v.One &= a.One &^ a.Zero
				v.Zero |= a.Zero &^ a.One
			}
		case Or, Nor:
			v.Zero = ^uint64(0)
			for _, id := range in {
				a := vals[id]
				v.One |= a.One &^ a.Zero
				v.Zero &= a.Zero &^ a.One
			}
		case Xor, Xnor:
			v = vals[in[0]].normalized()
			for _, id := range in[1:] {
				b := vals[id].normalized()
				v = Planes{v.One&b.Zero | v.Zero&b.One, v.One&b.One | v.Zero&b.Zero}
			}
		}
		if o.invert {
			v.One, v.Zero = v.Zero, v.One
		}
		out := NetID(o.out)
		if faulted {
			v = e.force[out].apply(v)
		}
		if bridged {
			v = e.resolveBridged(out, v)
		}
		vals[out] = v
	}
}

// apply overrides the forced lanes of v.
func (f force) apply(v Planes) Planes {
	return Planes{v.One&^f.mask | f.one, v.Zero&^f.mask | f.zero}
}

// resolveBridged assigns a bridged net its wired-AND value, using the
// peer's driven value from this pass when available and its (stale or
// pessimistic) current value otherwise.
func (e *Evaluator) resolveBridged(id NetID, v Planes) Planes {
	peer := e.peer[id]
	if peer < 0 {
		return v
	}
	e.driven[id] = v
	e.drivenPass[id] = e.pass
	pv := e.vals[peer]
	if e.drivenPass[peer] == e.pass {
		pv = e.driven[peer]
	}
	a, b := v.normalized(), pv.normalized()
	return Planes{a.One & b.One, a.Zero | b.Zero}
}

// Value returns lane 0's value of a net after the last evaluation.
func (e *Evaluator) Value(id NetID) signal.Bit {
	e.n.checkNet(id)
	return e.vals[id].Bit(0)
}

// OutputPlanes returns every lane's value of primary output i (in
// Outputs() order) after the last evaluation.
func (e *Evaluator) OutputPlanes(i int) Planes { return e.vals[e.n.outputs[i]] }

// Toggles returns the accumulated toggle count of a net.
func (e *Evaluator) Toggles(id NetID) uint64 {
	e.n.checkNet(id)
	if e.toggles == nil {
		return 0
	}
	return e.toggles[id]
}

// TotalToggles sums toggle counts across all nets.
func (e *Evaluator) TotalToggles() uint64 {
	var t uint64
	for _, v := range e.toggles {
		t += v
	}
	return t
}

// ResetToggles clears toggle counters and pattern history.
func (e *Evaluator) ResetToggles() {
	clear(e.toggles)
	e.havePrev = false
}

// OutputWord packs lane 0's primary-output values of the last evaluation
// into a Word (bit i = output i).
func (e *Evaluator) OutputWord() signal.Word {
	w := signal.NewWord(len(e.n.outputs))
	for i, id := range e.n.outputs {
		w.Bits[i] = e.vals[id].Bit(0)
	}
	return w
}
