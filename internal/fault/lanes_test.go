package fault

import (
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/gate"
	"repro/internal/signal"
)

var fourLevels = [...]signal.Bit{signal.B0, signal.B1, signal.BX, signal.BZ}

// allFourValued returns every n-bit pattern over {0,1,X,Z}.
func allFourValued(n int) [][]signal.Bit {
	total := 1
	for i := 0; i < n; i++ {
		total *= 4
	}
	out := make([][]signal.Bit, total)
	for v := range out {
		p := make([]signal.Bit, n)
		for i, x := 0, v; i < n; i, x = i+1, x/4 {
			p[i] = fourLevels[x%4]
		}
		out[v] = p
	}
	return out
}

// oneFaultPerPassTable is the detection table computed one fault per
// evaluation on the same word evaluator (lane 0 API), grouping rows by
// first appearance in fault-list order.
func oneFaultPerPassTable(t *testing.T, nl *gate.Netlist, list *SymbolicList, in []signal.Bit) string {
	t.Helper()
	ev, err := nl.NewEvaluator()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ev.Eval(in); err != nil {
		t.Fatal(err)
	}
	good := ev.OutputWord()
	dt := &DetectionTable{Input: signal.Word{Bits: in}, FaultFree: good}
	rowIdx := map[string]int{}
	for _, name := range list.Names() {
		f, _ := list.Fault(name)
		ev.ClearFaults()
		ev.SetFault(f)
		ev.Eval(in)
		bad := ev.OutputWord()
		if bad.Equal(good) || !bad.Known() {
			continue
		}
		if i, ok := rowIdx[bad.String()]; ok {
			dt.Rows[i].Faults = append(dt.Rows[i].Faults, name)
			continue
		}
		rowIdx[bad.String()] = len(dt.Rows)
		dt.Rows = append(dt.Rows, DetectionRow{Output: bad, Faults: []string{name}})
	}
	for i := range dt.Rows {
		sort.Strings(dt.Rows[i].Faults)
	}
	return dt.ParamString()
}

// TestDetectionTableMatchesOneFaultPerPass checks the faults-in-lanes
// table against a one-fault-per-pass loop over every four-valued input,
// on components whose fault lists span several 64-lane chunks.
func TestDetectionTableMatchesOneFaultPerPass(t *testing.T) {
	comps := []*gate.Netlist{
		gate.C17(),
		gate.HalfAdderIP(),
		gate.RandomCombinational(3, 120, 2, 5),
		gate.RandomCombinational(4, 60, 3, 6),
	}
	for _, nl := range comps {
		for _, internal := range []bool{false, true} {
			lt, err := NewLocalTestability(nl, NetNames, internal)
			if err != nil {
				t.Fatal(err)
			}
			for _, in := range allFourValued(len(nl.Inputs())) {
				dt, err := lt.DetectionTable(in)
				if err != nil {
					t.Fatal(err)
				}
				want := oneFaultPerPassTable(t, nl, lt.Symbolic(), in)
				if got := dt.ParamString(); got != want {
					t.Fatalf("%s internal=%v input %v:\n lanes: %s\n  pass: %s", nl.Name, internal, in, got, want)
				}
			}
		}
	}
}

// patternAtATime is the flat reference as a pattern-at-a-time loop with
// fault dropping over the word evaluator's lane 0 API.
func patternAtATime(t *testing.T, nl *gate.Netlist, reps []gate.Fault, patterns [][]signal.Bit) *Result {
	t.Helper()
	res := &Result{Total: len(reps), Detected: map[string]int{}, PerPattern: make([][]string, len(patterns))}
	golden, _ := nl.NewEvaluator()
	faulty, _ := nl.NewEvaluator()
	alive := append([]gate.Fault(nil), reps...)
	for pi, p := range patterns {
		out, err := golden.Eval(p)
		if err != nil {
			t.Fatal(err)
		}
		good := append([]signal.Bit(nil), out...)
		var next []gate.Fault
		for _, f := range alive {
			faulty.ClearFaults()
			faulty.SetFault(f)
			bad, _ := faulty.Eval(p)
			if knownDiff(good, bad) {
				res.Detected[f.Symbol(nl)] = pi
				res.PerPattern[pi] = append(res.PerPattern[pi], f.Symbol(nl))
			} else {
				next = append(next, f)
			}
		}
		alive = next
	}
	return res
}

// TestSerialSimulatePatternsInLanes checks the 64-patterns-per-pass
// reference against the pattern-at-a-time loop, with unknown inputs and
// pattern counts on both sides of a block boundary, and at worker counts
// 1, 2 and 0.
func TestSerialSimulatePatternsInLanes(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	for _, nl := range []*gate.Netlist{gate.C17(), gate.ArrayMultiplier(4), gate.RandomCombinational(6, 150, 3, 8)} {
		reps := Collapse(nl)
		for _, n := range []int{1, 63, 64, 65, 150} {
			patterns := make([][]signal.Bit, n)
			for i := range patterns {
				p := make([]signal.Bit, len(nl.Inputs()))
				for j := range p {
					p[j] = fourLevels[r.Intn(2)]
					if r.Intn(10) == 0 {
						p[j] = fourLevels[2+r.Intn(2)]
					}
				}
				patterns[i] = p
			}
			want := patternAtATime(t, nl, reps, patterns)
			for _, workers := range []int{1, 2, 0} {
				got, err := SerialSimulateFaultsWorkers(nl, reps, patterns, workers)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s n=%d workers=%d: lanes %v, pattern loop %v", nl.Name, n, workers, got.PerPattern, want.PerPattern)
				}
			}
		}
	}
}

// TestSerialSimulateMalformedPattern pins when a wrong-width pattern is
// an error: only if the run reaches it with faults still undetected.
func TestSerialSimulateMalformedPattern(t *testing.T) {
	nl := gate.C17()
	reps := Collapse(nl)
	short := []signal.Bit{signal.B1}
	if _, err := SerialSimulateFaults(nl, reps, [][]signal.Bit{short}); err == nil ||
		!strings.Contains(err.Error(), "pattern 0") {
		t.Fatalf("malformed first pattern: err %v", err)
	}
	if _, err := SerialSimulateFaults(nl, nil, [][]signal.Bit{short}); err == nil {
		t.Fatal("malformed first pattern with no faults: want error")
	}
	one := nl.InputWord(0b10101)
	if _, err := SerialSimulateFaults(nl, reps, [][]signal.Bit{one, short}); err == nil ||
		!strings.Contains(err.Error(), "pattern 1") {
		t.Fatalf("malformed second pattern with live faults: err %v", err)
	}
	// Every fault detected by pattern 0: the run stops before pattern 1.
	var all [][]signal.Bit
	for v := uint64(0); v < 32; v++ {
		all = append(all, nl.InputWord(v))
	}
	full, err := SerialSimulateFaults(nl, reps, all)
	if err != nil || full.Coverage() != 1 {
		t.Fatalf("C17 exhaustive: %v coverage %v", err, full.Coverage())
	}
	var first []gate.Fault
	for _, f := range reps {
		if full.Detected[f.Symbol(nl)] == 0 {
			first = append(first, f)
		}
	}
	res, err := SerialSimulateFaults(nl, first, [][]signal.Bit{all[0], short})
	if err != nil || len(res.Detected) != len(first) {
		t.Fatalf("malformed pattern after full detection: err %v, detected %d of %d", err, len(res.Detected), len(first))
	}
}

// TestDetectionTableLaneLoopSteadyStateAllocFree pins what the
// //gocad:noalloc annotations promise at run time: once the first query
// has built the evaluator, simulating a 64-fault chunk allocates nothing.
func TestDetectionTableLaneLoopSteadyStateAllocFree(t *testing.T) {
	nl := gate.ArrayMultiplier(4)
	lt, err := NewLocalTestability(nl, NetNames, true)
	if err != nil {
		t.Fatal(err)
	}
	in := nl.InputWord(0b1011_0110)
	if _, err := lt.DetectionTable(in); err != nil {
		t.Fatal(err)
	}
	chunk := lt.faults[:min(gate.Lanes, len(lt.faults))]
	if allocs := testing.AllocsPerRun(50, func() { lt.excitedLanes(in, chunk) }); allocs != 0 {
		t.Fatalf("lane loop allocates %.0f times per chunk", allocs)
	}
}
