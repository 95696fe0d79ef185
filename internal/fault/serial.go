package fault

import (
	"fmt"
	"math/bits"

	"repro/internal/gate"
	"repro/internal/signal"
	"repro/internal/sim"
)

// Result summarizes a flat (full-disclosure) fault simulation run.
type Result struct {
	// Total is the size of the collapsed target fault list.
	Total int
	// Detected maps each detected fault's symbol to the index of the
	// first pattern that detected it.
	Detected map[string]int
	// PerPattern[i] lists the faults newly detected by pattern i.
	PerPattern [][]string
	// Divergences lists replica disagreements observed by quorum-mode
	// testability services during the run (nil otherwise). Divergent
	// answers were out-voted, not used; a non-empty list flags a replica
	// answering differently from its peers.
	Divergences []ReplicaDivergence
}

// Coverage returns detected/total in [0,1].
func (r *Result) Coverage() float64 {
	if r.Total == 0 {
		return 0
	}
	return float64(len(r.Detected)) / float64(r.Total)
}

// CoverageCurve returns the cumulative coverage after each pattern.
func (r *Result) CoverageCurve() []float64 {
	out := make([]float64, len(r.PerPattern))
	seen := 0
	for i, fs := range r.PerPattern {
		seen += len(fs)
		if r.Total > 0 {
			out[i] = float64(seen) / float64(r.Total)
		}
	}
	return out
}

// SerialSimulate runs classical serial stuck-at fault simulation with
// fault dropping over a flat netlist: for each pattern, the fault-free
// outputs are computed, then every still-undetected collapsed fault is
// injected and the outputs compared. This is the reference an IP owner
// with full disclosure could run — virtual fault simulation must detect
// exactly the same fault set on the flattened equivalent design, which is
// the central correctness property of the protocol.
func SerialSimulate(nl *gate.Netlist, patterns [][]signal.Bit) (*Result, error) {
	return SerialSimulateFaults(nl, Collapse(nl), patterns)
}

// SerialSimulateFaults is SerialSimulate over an explicit target fault
// list instead of the netlist's own collapsed universe — used to compare
// virtual fault simulation against the flattened reference on exactly the
// component faults the provider published. The per-pattern injection loop
// fans out over one worker per CPU; call SerialSimulateFaultsWorkers to
// bound it (workers=1 reproduces the historical fully serial loop).
func SerialSimulateFaults(nl *gate.Netlist, reps []gate.Fault, patterns [][]signal.Bit) (*Result, error) {
	return SerialSimulateFaultsWorkers(nl, reps, patterns, 0)
}

// SerialSimulateFaultsWorkers runs the flat reference simulation with a
// bounded worker pool. It is parallel-pattern single-fault propagation:
// each fault is injected once and simulated against 64 patterns per pass
// of the word evaluator, in pattern order, until a pass detects it (its
// first detection is the lowest detecting lane) or the patterns run out.
// Faults are independent (each worker owns a private evaluator), and the
// verdicts are merged in fault-list order, so the Result is
// bit-identical for any worker count — and to the pattern-at-a-time
// loop with fault dropping.
func SerialSimulateFaultsWorkers(nl *gate.Netlist, reps []gate.Fault, patterns [][]signal.Bit, workers int) (*Result, error) {
	res := &Result{
		Total:      len(reps),
		Detected:   make(map[string]int),
		PerPattern: make([][]string, len(patterns)),
	}
	golden, err := nl.NewEvaluator()
	if err != nil {
		return nil, err
	}
	// A malformed pattern ends the run; it is reported only if some fault
	// is still undetected when the run reaches it, as the
	// pattern-at-a-time loop would.
	width, nOut := len(nl.Inputs()), len(nl.Outputs())
	valid := len(patterns)
	for pi, p := range patterns {
		if len(p) != width {
			valid = pi
			break
		}
	}
	// Pack the patterns 64 per block and simulate each block fault-free.
	nBlocks := (valid + gate.Lanes - 1) / gate.Lanes
	in := make([][]gate.Planes, nBlocks)
	good := make([][]gate.Planes, nBlocks)
	masks := make([]uint64, nBlocks)
	for b := range in {
		block := patterns[b*gate.Lanes : min((b+1)*gate.Lanes, valid)]
		in[b] = gate.PackLanes(block, width)
		masks[b] = laneMask(len(block))
		if err := golden.EvalPlanes(in[b]); err != nil {
			return nil, err
		}
		good[b] = make([]gate.Planes, nOut)
		for i := range good[b] {
			good[b][i] = golden.OutputPlanes(i)
		}
	}
	pool := sim.Pool{Workers: workers}
	// Evaluators are not concurrency-safe, so each worker gets its own;
	// they must be built serially here because NewEvaluator memoizes the
	// netlist's build step.
	evs := make([]*gate.Evaluator, pool.Size())
	for i := range evs {
		ev, err := nl.NewEvaluator()
		if err != nil {
			return nil, err
		}
		evs[i] = ev
	}
	first := make([]int, len(reps))
	err = pool.ForWorker(len(reps), func(worker, i int) error {
		ev := evs[worker]
		ev.ClearFaults()
		ev.SetFault(reps[i])
		first[i] = -1
		for b := range in {
			if err := ev.EvalPlanes(in[b]); err != nil {
				return err
			}
			if hits := knownDiffLanes(ev, good[b]) & masks[b]; hits != 0 {
				first[i] = b*gate.Lanes + bits.TrailingZeros64(hits)
				return nil
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Merge in fault-list order — the order the pattern-at-a-time loop
	// recorded detections within one pattern.
	undetected := false
	for i, f := range reps {
		if first[i] < 0 {
			undetected = true
			continue
		}
		sym := f.Symbol(nl)
		res.Detected[sym] = first[i]
		res.PerPattern[first[i]] = append(res.PerPattern[first[i]], sym)
	}
	if valid < len(patterns) && (valid == 0 || undetected) {
		_, err := golden.Eval(patterns[valid])
		return nil, fmt.Errorf("fault: pattern %d: %w", valid, err)
	}
	return res, nil
}

// knownDiffLanes returns the lanes where some primary output of ev's
// last evaluation is known and differs from a known value in good.
//
//gocad:noalloc
func knownDiffLanes(ev *gate.Evaluator, good []gate.Planes) uint64 {
	var diff uint64
	for i, g := range good {
		o := ev.OutputPlanes(i)
		diff |= o.Known1()&g.Known0() | o.Known0()&g.Known1()
	}
	return diff
}
