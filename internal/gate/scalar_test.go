package gate

// The scalar evaluator below is the one-pattern, one-machine sweep the
// word kernel in eval.go replaced. It survives only as the differential
// oracle of FuzzEvaluatorVsScalar and the lane tests: one signal.Bit per
// net, a map lookup per stuck-at fault, and signal's four-valued truth
// tables per gate input.

import (
	"fmt"

	"repro/internal/signal"
)

// scalarEvaluator holds reusable evaluation state for one netlist, amortizing
// allocation across patterns. Evaluators are not safe for concurrent use;
// create one per goroutine.
type scalarEvaluator struct {
	n      *Netlist
	values []signal.Bit

	// fault injection state
	faults map[NetID]signal.Bit

	// bridging-fault state: wired-AND pairs and the per-pass driven
	// values of bridged nets (as opposed to their resolved values).
	bridges []Bridge
	driven  map[NetID]signal.Bit

	// toggle counting state
	prev        []signal.Bit
	toggles     []uint64
	havePrev    bool
	CountToggle bool
}

// newScalarEvaluator builds (levelizes) the netlist and returns a fresh
// scalar evaluator over it.
func newScalarEvaluator(n *Netlist) (*scalarEvaluator, error) {
	if err := n.build(); err != nil {
		return nil, err
	}
	return &scalarEvaluator{
		n:       n,
		values:  make([]signal.Bit, len(n.nets)),
		prev:    make([]signal.Bit, len(n.nets)),
		toggles: make([]uint64, len(n.nets)),
	}, nil
}

// SetFault injects a stuck-at fault for subsequent evaluations.
func (e *scalarEvaluator) SetFault(f Fault) {
	if e.faults == nil {
		e.faults = make(map[NetID]signal.Bit)
	}
	e.faults[f.Net] = f.Stuck
}

// ClearFaults removes all injected faults.
func (e *scalarEvaluator) ClearFaults() { e.faults = nil }

// SetBridge installs a wired-AND bridging fault for subsequent
// evaluations. Bridges between nets on a combinational feedback path are
// resolved by bounded iteration and may conservatively report X.
func (e *scalarEvaluator) SetBridge(b Bridge) {
	e.n.checkNet(b.A)
	e.n.checkNet(b.B)
	e.bridges = append(e.bridges, b)
}

// ClearBridges removes all bridging faults.
func (e *scalarEvaluator) ClearBridges() { e.bridges = nil }

// bridgePeer returns the net bridged to id, if any.
func (e *scalarEvaluator) bridgePeer(id NetID) (NetID, bool) {
	for _, b := range e.bridges {
		if b.A == id {
			return b.B, true
		}
		if b.B == id {
			return b.A, true
		}
	}
	return InvalidNet, false
}

// resolveBridged assigns a bridged net its wired-AND value, using the
// peer's driven value from this pass when available and its (stale or
// pessimistic) current value otherwise.
func (e *scalarEvaluator) resolveBridged(id NetID, drivenVal signal.Bit) signal.Bit {
	peer, ok := e.bridgePeer(id)
	if !ok {
		return drivenVal
	}
	e.driven[id] = drivenVal
	pv, ok := e.driven[peer]
	if !ok {
		pv = e.values[peer]
	}
	return drivenVal.And(pv)
}

// Eval evaluates one input pattern and returns the primary-output values.
// The returned slice is reused across calls; copy it to retain it. With
// CountToggle set, per-net known-value transitions versus the previous
// pattern are accumulated (the raw material of toggle-based power
// estimation).
func (e *scalarEvaluator) Eval(inputs []signal.Bit) ([]signal.Bit, error) {
	n := e.n
	if len(inputs) != len(n.inputs) {
		return nil, fmt.Errorf("gate: %s: got %d input values, want %d", n.Name, len(inputs), len(n.inputs))
	}
	if e.CountToggle && e.havePrev {
		copy(e.prev, e.values)
	}
	// Undriven nets read as X.
	for i := range e.values {
		if n.nets[i].driver == -1 && !n.nets[i].isPI {
			e.values[i] = signal.BX
		}
	}
	if len(e.bridges) == 0 {
		e.pass(inputs)
	} else {
		// Bridged nets start pessimistic, then bounded iteration reaches
		// the wired-AND fixpoint (two passes suffice for feed-forward
		// bridges; a third catches chained pairs).
		for _, b := range e.bridges {
			e.values[b.A] = signal.BX
			e.values[b.B] = signal.BX
		}
		for iter := 0; iter < 3; iter++ {
			e.driven = make(map[NetID]signal.Bit, 2*len(e.bridges))
			e.pass(inputs)
		}
	}
	if e.CountToggle {
		if e.havePrev {
			for i := range e.values {
				if e.values[i].Known() && e.prev[i].Known() && e.values[i] != e.prev[i] {
					e.toggles[i]++
				}
			}
		}
		e.havePrev = true
	}
	out := make([]signal.Bit, len(n.outputs))
	for i, id := range n.outputs {
		out[i] = e.values[id]
	}
	return out, nil
}

// pass runs one levelized evaluation sweep: primary-input assignment
// (with stuck-at and bridge application) followed by the gate loop.
func (e *scalarEvaluator) pass(inputs []signal.Bit) {
	n := e.n
	for i, id := range n.inputs {
		v := inputs[i]
		if e.faults != nil {
			if b, ok := e.faults[id]; ok {
				v = b
			}
		}
		if len(e.bridges) > 0 {
			v = e.resolveBridged(id, v)
		}
		e.values[id] = v
	}
	for _, gi := range n.levels {
		g := &n.gates[gi]
		v := e.gateValue(g)
		if e.faults != nil {
			if b, ok := e.faults[g.Out]; ok {
				v = b
			}
		}
		if len(e.bridges) > 0 {
			v = e.resolveBridged(g.Out, v)
		}
		e.values[g.Out] = v
	}
}

// gateValue evaluates one gate over the current net values, using a small
// stack buffer to avoid per-gate allocation.
func (e *scalarEvaluator) gateValue(g *Gate) signal.Bit {
	var buf [8]signal.Bit
	in := buf[:0]
	if len(g.In) > len(buf) {
		in = make([]signal.Bit, 0, len(g.In))
	}
	for _, id := range g.In {
		in = append(in, e.values[id])
	}
	return scalarKindEval(g.Kind, in)
}

// Value returns the current value of a net after the last Eval.
func (e *scalarEvaluator) Value(id NetID) signal.Bit {
	e.n.checkNet(id)
	return e.values[id]
}

// Toggles returns the accumulated toggle count of a net.
func (e *scalarEvaluator) Toggles(id NetID) uint64 {
	e.n.checkNet(id)
	return e.toggles[id]
}

// TotalToggles sums toggle counts across all nets.
func (e *scalarEvaluator) TotalToggles() uint64 {
	var t uint64
	for _, v := range e.toggles {
		t += v
	}
	return t
}

// ResetToggles clears toggle counters and pattern history.
func (e *scalarEvaluator) ResetToggles() {
	for i := range e.toggles {
		e.toggles[i] = 0
	}
	e.havePrev = false
}

// OutputWord packs the primary-output values of the last Eval into a Word
// (bit i = output i).
func (e *scalarEvaluator) OutputWord() signal.Word {
	w := signal.NewWord(len(e.n.outputs))
	for i, id := range e.n.outputs {
		w.Bits[i] = e.values[id]
	}
	return w
}

// scalarKindEval computes the gate function over four-valued inputs.
func scalarKindEval(k Kind, in []signal.Bit) signal.Bit {
	switch k {
	case Buf:
		return in[0].Or(in[0]) // normalizes Z to X like any gate input
	case Not:
		return in[0].Not()
	case And, Nand:
		v := in[0]
		for _, b := range in[1:] {
			v = v.And(b)
		}
		if k == Nand {
			v = v.Not()
		}
		return v
	case Or, Nor:
		v := in[0]
		for _, b := range in[1:] {
			v = v.Or(b)
		}
		if k == Nor {
			v = v.Not()
		}
		return v
	case Xor, Xnor:
		v := in[0]
		for _, b := range in[1:] {
			v = v.Xor(b)
		}
		if k == Xnor {
			v = v.Not()
		}
		return v
	}
	return signal.BX
}
