package gate

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/signal"
)

var fourLevels = [...]signal.Bit{signal.B0, signal.B1, signal.BX, signal.BZ}

// randomLaneNetlist builds a random levelizable netlist exercising
// every gate Kind with 1..8 inputs, undriven nets, and primary outputs
// that are primary inputs or undriven.
func randomLaneNetlist(r *rand.Rand) *Netlist {
	nl := NewNetlist("lanes")
	nIn := 1 + r.Intn(6)
	avail := make([]NetID, 0, 64)
	for i := 0; i < nIn; i++ {
		avail = append(avail, nl.AddInput(fmt.Sprintf("i%d", i)))
	}
	for i, n := 0, r.Intn(3); i < n; i++ {
		u := nl.AddNet(fmt.Sprintf("u%d", i))
		if r.Intn(2) == 0 {
			nl.MarkOutput(u)
		}
	}
	nGates := 1 + r.Intn(40)
	for g := 0; g < nGates; g++ {
		k := Kind(r.Intn(len(kindNames)))
		arity := 1
		if k != Buf && k != Not {
			arity = 2 + r.Intn(7)
		}
		in := make([]NetID, arity)
		for i := range in {
			in[i] = avail[r.Intn(len(avail))]
		}
		avail = append(avail, nl.AddGate(k, fmt.Sprintf("g%d", g), in...))
	}
	for i, n := 0, 1+r.Intn(4); i < n; i++ {
		nl.MarkOutput(avail[r.Intn(len(avail))])
	}
	nl.MarkOutput(avail[len(avail)-1])
	return nl
}

func randomPattern(r *rand.Rand, width int) []signal.Bit {
	p := make([]signal.Bit, width)
	for i := range p {
		p[i] = fourLevels[r.Intn(4)]
	}
	return p
}

// checkLanesAgainstScalar drives 64 lanes, each with its own four-valued
// pattern and stuck-at fault set (plus optional shared bridges), and
// compares every net of every lane with the scalar oracle. It then
// replays a broadcast sequence with toggle counting on lane 0.
func checkLanesAgainstScalar(t *testing.T, seed int64) {
	r := rand.New(rand.NewSource(seed))
	nl := randomLaneNetlist(r)
	ev, err := nl.NewEvaluator()
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	ref, err := newScalarEvaluator(nl)
	if err != nil {
		t.Fatal(err)
	}
	var bridges []Bridge
	if r.Intn(3) == 0 {
		for i, n := 0, 1+r.Intn(3); i < n; i++ {
			b := Bridge{A: NetID(r.Intn(nl.NumNets())), B: NetID(r.Intn(nl.NumNets()))}
			bridges = append(bridges, b)
			ev.SetBridge(b)
			ref.SetBridge(b)
		}
	}
	width := len(nl.Inputs())
	patterns := make([][]signal.Bit, Lanes)
	faults := make([][]Fault, Lanes)
	for l := range patterns {
		patterns[l] = randomPattern(r, width)
		for i, n := 0, r.Intn(4); i < n; i++ {
			f := Fault{Net: NetID(r.Intn(nl.NumNets())), Stuck: fourLevels[r.Intn(4)]}
			faults[l] = append(faults[l], f)
			ev.SetLaneFault(l, f)
		}
	}
	if err := ev.EvalPlanes(PackLanes(patterns, width)); err != nil {
		t.Fatal(err)
	}
	for l := range patterns {
		ref.ClearFaults()
		for _, f := range faults[l] {
			ref.SetFault(f)
		}
		if _, err := ref.Eval(patterns[l]); err != nil {
			t.Fatal(err)
		}
		for id := 0; id < nl.NumNets(); id++ {
			got, want := ev.vals[id].Bit(l), ref.Value(NetID(id))
			if got != want {
				t.Fatalf("seed %d lane %d net %s: got %v, scalar %v (pattern %v faults %v bridges %v)",
					seed, l, nl.NetName(NetID(id)), got, want, patterns[l], faults[l], bridges)
			}
		}
	}

	// Broadcast sequence: lane 0 API, shared fault, toggle counting.
	ev.ClearFaults()
	ref.ClearFaults()
	if len(faults[0]) > 0 {
		ev.SetFault(faults[0][0])
		ref.SetFault(faults[0][0])
	}
	ev.CountToggle, ref.CountToggle = true, true
	for step := 0; step < 4; step++ {
		p := randomPattern(r, width)
		got, err := ev.Eval(p)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := ref.Eval(p)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d step %d output %d: got %v, scalar %v", seed, step, i, got[i], want[i])
			}
		}
		if !ev.OutputWord().Equal(ref.OutputWord()) {
			t.Fatalf("seed %d step %d: OutputWord differs", seed, step)
		}
		for l := 0; l < Lanes; l++ {
			for i := range want {
				if b := ev.OutputPlanes(i).Bit(l); b != want[i] {
					t.Fatalf("seed %d step %d lane %d output %d: broadcast lane %v, scalar %v", seed, step, l, i, b, want[i])
				}
			}
		}
	}
	for id := 0; id < nl.NumNets(); id++ {
		if ev.Toggles(NetID(id)) != ref.Toggles(NetID(id)) {
			t.Fatalf("seed %d net %d: toggles %d, scalar %d", seed, id, ev.Toggles(NetID(id)), ref.Toggles(NetID(id)))
		}
	}
	if ev.TotalToggles() != ref.TotalToggles() {
		t.Fatalf("seed %d: total toggles %d, scalar %d", seed, ev.TotalToggles(), ref.TotalToggles())
	}
}

// FuzzEvaluatorVsScalar is the word kernel's differential oracle: random
// netlists, four-valued inputs including Z, a different stuck-at fault
// set per lane and optional bridges, every net of every lane compared
// against the scalar sweep.
func FuzzEvaluatorVsScalar(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		checkLanesAgainstScalar(t, seed)
	})
}

func TestEvaluatorMatchesScalarOnSeeds(t *testing.T) {
	for seed := int64(0); seed < 400; seed++ {
		checkLanesAgainstScalar(t, seed)
	}
}

func TestEvalReusesOutputSlice(t *testing.T) {
	nl := C17()
	ev, err := nl.NewEvaluator()
	if err != nil {
		t.Fatal(err)
	}
	a, _ := ev.Eval(nl.InputWord(0))
	b, _ := ev.Eval(nl.InputWord(31))
	if &a[0] != &b[0] {
		t.Fatal("Eval returned a fresh slice; its contract is to reuse one")
	}
	in := nl.InputWord(5)
	if allocs := testing.AllocsPerRun(100, func() { ev.Eval(in) }); allocs != 0 {
		t.Fatalf("Eval allocates %.0f times per call", allocs)
	}
}

func TestPackLanesAndPlanesBit(t *testing.T) {
	pats := [][]signal.Bit{
		{signal.B0, signal.B1},
		{signal.BX, signal.BZ},
		{signal.B1, signal.B0},
	}
	in := PackLanes(pats, 2)
	for l, p := range pats {
		for i, b := range p {
			if got := in[i].Bit(l); got != b {
				t.Errorf("lane %d input %d: %v, want %v", l, i, got, b)
			}
		}
	}
	if got := in[0].Bit(5); got != signal.BX {
		t.Errorf("unused lane reads %v, want X", got)
	}
	for _, b := range fourLevels {
		p := broadcast[b]
		if p.Bit(0) != b || p.Bit(63) != b {
			t.Errorf("broadcast %v decodes to %v/%v", b, p.Bit(0), p.Bit(63))
		}
	}
}
