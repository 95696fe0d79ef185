// Package ppp is gocad's stand-in for PPP, the advanced gate-level power
// simulator the paper invokes on the IP provider's server (Bogliolo et
// al., "Power and Current Estimation of Cell-Based CMOS Circuits", IEEE
// TVLSI 1997). It performs cell-based power, area and delay estimation
// over internal/gate netlists: per-cell energy characterization times
// observed toggle counts, with fanout-proportional load. Running it
// requires the gate-level description of a component, which is exactly
// why — in an IP-protected flow — it can only execute on the provider's
// JavaCAD server, never on the user's client.
package ppp

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/gate"
	"repro/internal/signal"
)

// Library holds the per-cell characterization data: switching energy,
// area, and intrinsic delay per gate kind, plus the incremental load
// energy per fanout.
type Library struct {
	Name string
	// EnergyPerToggle is the internal switching energy per output toggle,
	// in femtojoules, indexed by gate.Kind.
	EnergyPerToggle map[gate.Kind]float64
	// LoadEnergyPerFanout is the additional energy per toggle per driven
	// gate input, in femtojoules.
	LoadEnergyPerFanout float64
	// Area is the cell area in equivalent-gate units, by kind.
	Area map[gate.Kind]float64
	// Delay is the intrinsic cell delay in picoseconds, by kind.
	Delay map[gate.Kind]float64
	// LoadDelayPerFanout is the additional delay per driven input, in ps.
	LoadDelayPerFanout float64
	// CycleTime converts per-pattern energy to power, in nanoseconds.
	CycleTime float64
}

// DefaultLibrary returns a plausible 0.35µm-era standard-cell
// characterization — absolute numbers are synthetic, but the relative
// weights (XOR > NAND, inverter cheapest) follow standard cell libraries.
func DefaultLibrary() *Library {
	return &Library{
		Name: "generic-350nm",
		EnergyPerToggle: map[gate.Kind]float64{
			gate.Buf: 4, gate.Not: 3,
			gate.And: 8, gate.Nand: 6,
			gate.Or: 8, gate.Nor: 6,
			gate.Xor: 14, gate.Xnor: 14,
		},
		LoadEnergyPerFanout: 2,
		Area: map[gate.Kind]float64{
			gate.Buf: 0.5, gate.Not: 0.5,
			gate.And: 1.5, gate.Nand: 1,
			gate.Or: 1.5, gate.Nor: 1,
			gate.Xor: 3, gate.Xnor: 3,
		},
		Delay: map[gate.Kind]float64{
			gate.Buf: 50, gate.Not: 40,
			gate.And: 120, gate.Nand: 90,
			gate.Or: 130, gate.Nor: 95,
			gate.Xor: 180, gate.Xnor: 185,
		},
		LoadDelayPerFanout: 15,
		CycleTime:          10,
	}
}

// Report is the outcome of a power simulation run.
type Report struct {
	Patterns     int
	AvgPower     float64   // average power per pattern, µW
	PeakPower    float64   // maximum per-pattern power, µW
	PerPattern   []float64 // per-pattern power series, µW
	TotalToggles uint64
	TotalEnergy  float64 // fJ
}

// Simulator runs cell-based power estimation over one netlist. It is not
// safe for concurrent use; create one per goroutine.
type Simulator struct {
	nl  *gate.Netlist
	ev  *gate.Evaluator // built by the first Step
	lib *Library

	// perNetEnergy caches energy-per-toggle for each net's driving cell,
	// including fanout load.
	perNetEnergy []float64
	prev         []signal.Bit
	havePrev     bool
	patterns     int
	totalEnergy  float64
	peak         float64
	series       []float64
	toggles      uint64
}

// NewSimulator builds a power simulator over the netlist with the given
// library (nil selects DefaultLibrary).
func NewSimulator(nl *gate.Netlist, lib *Library) (*Simulator, error) {
	if lib == nil {
		lib = DefaultLibrary()
	}
	if err := nl.Build(); err != nil {
		return nil, fmt.Errorf("ppp: %w", err)
	}
	s := &Simulator{nl: nl, lib: lib}
	s.perNetEnergy = make([]float64, nl.NumNets())
	for _, g := range nl.Gates() {
		e, ok := lib.EnergyPerToggle[g.Kind]
		if !ok {
			return nil, fmt.Errorf("ppp: library %s has no energy for %v", lib.Name, g.Kind)
		}
		s.perNetEnergy[g.Out] = e + lib.LoadEnergyPerFanout*float64(nl.Fanout(g.Out))
	}
	// Primary inputs dissipate load energy in the gates they feed.
	for _, id := range nl.Inputs() {
		s.perNetEnergy[id] = lib.LoadEnergyPerFanout * float64(nl.Fanout(id))
	}
	s.prev = make([]signal.Bit, nl.NumNets())
	return s, nil
}

// Step applies one input pattern and returns the energy (fJ) dissipated
// by the transition from the previous pattern. The first pattern
// establishes the initial state and dissipates zero energy.
func (s *Simulator) Step(inputs []signal.Bit) (float64, error) {
	if s.ev == nil {
		ev, err := newEvaluator(s.nl)
		if err != nil {
			return 0, err
		}
		s.ev = ev
	}
	if _, err := s.ev.Eval(inputs); err != nil {
		return 0, err
	}
	var energy float64
	if s.havePrev {
		for id := 0; id < s.nl.NumNets(); id++ {
			cur := s.ev.Value(gate.NetID(id))
			if cur.Known() && s.prev[id].Known() && cur != s.prev[id] {
				energy += s.perNetEnergy[id]
				s.toggles++
			}
		}
	}
	for id := 0; id < s.nl.NumNets(); id++ {
		s.prev[id] = s.ev.Value(gate.NetID(id))
	}
	s.havePrev = true
	s.patterns++
	s.totalEnergy += energy
	power := energy / s.lib.CycleTime // fJ / ns = µW
	s.series = append(s.series, power)
	if power > s.peak {
		s.peak = power
	}
	return energy, nil
}

// Run simulates a whole pattern sequence and returns the report.
func (s *Simulator) Run(patterns [][]signal.Bit) (Report, error) {
	if len(patterns) == 0 {
		return Report{}, errors.New("ppp: empty pattern sequence")
	}
	for _, p := range patterns {
		if _, err := s.Step(p); err != nil {
			return Report{}, err
		}
	}
	return s.Report(), nil
}

// Report summarizes all Steps so far.
func (s *Simulator) Report() Report {
	r := Report{
		Patterns:     s.patterns,
		PeakPower:    s.peak,
		PerPattern:   append([]float64(nil), s.series...),
		TotalToggles: s.toggles,
		TotalEnergy:  s.totalEnergy,
	}
	if s.patterns > 1 {
		// The first pattern only establishes state.
		r.AvgPower = s.totalEnergy / s.lib.CycleTime / float64(s.patterns-1)
	}
	return r
}

// Reset clears accumulated state so the simulator can be reused.
func (s *Simulator) Reset() {
	s.havePrev = false
	s.patterns = 0
	s.totalEnergy = 0
	s.peak = 0
	s.series = s.series[:0]
	s.toggles = 0
}

// AreaOf returns the total cell area of the netlist in equivalent gates.
func AreaOf(nl *gate.Netlist, lib *Library) float64 {
	if lib == nil {
		lib = DefaultLibrary()
	}
	var a float64
	for _, g := range nl.Gates() {
		a += lib.Area[g.Kind]
	}
	return a
}

// CriticalPath returns the worst-case propagation delay of the netlist in
// picoseconds under the library's cell delays and fanout loading.
func CriticalPath(nl *gate.Netlist, lib *Library) (float64, error) {
	if lib == nil {
		lib = DefaultLibrary()
	}
	if err := nl.Build(); err != nil {
		return 0, err
	}
	arrival := make([]float64, nl.NumNets())
	var worst float64
	// Walk gates in topological order via repeated evaluation order: the
	// netlist's levelized order is exposed through Gates() plus Build
	// guarantees; recompute a topological order locally from driver
	// structure.
	order, err := topoOrder(nl)
	if err != nil {
		return 0, err
	}
	for _, gi := range order {
		g := nl.Gates()[gi]
		var in float64
		for _, id := range g.In {
			if arrival[id] > in {
				in = arrival[id]
			}
		}
		d := lib.Delay[g.Kind] + lib.LoadDelayPerFanout*float64(nl.Fanout(g.Out))
		arrival[g.Out] = in + d
		if arrival[g.Out] > worst {
			worst = arrival[g.Out]
		}
	}
	return worst, nil
}

// TimingSimulator estimates the INPUT-DEPENDENT propagation delay of a
// netlist: for each applied pattern, the arrival time of the latest
// switching primary output, under the library's cell delays and fanout
// loading. This is the accurate timing method the paper's example
// assigns to the provider's server ("accurate timing computation
// requires analyzing the multiplier's gate-level structure, which cannot
// be disclosed to the IP user"): unlike the static critical path, the
// per-pattern delay reflects which paths actually switch.
type TimingSimulator struct {
	nl    *gate.Netlist
	ev    *gate.Evaluator // built by the first Step
	lib   *Library
	order []int
	delay []float64 // per-gate cell+load delay

	prev     []signal.Bit
	havePrev bool

	// per-step scratch, indexed by net (allocated by the second Step)
	arrival []float64
	changed []bool
}

// NewTimingSimulator builds a timing simulator over the netlist.
func NewTimingSimulator(nl *gate.Netlist, lib *Library) (*TimingSimulator, error) {
	if lib == nil {
		lib = DefaultLibrary()
	}
	if err := nl.Build(); err != nil {
		return nil, err
	}
	order, err := topoOrder(nl)
	if err != nil {
		return nil, err
	}
	ts := &TimingSimulator{nl: nl, lib: lib, order: order}
	ts.delay = make([]float64, nl.NumGates())
	for gi, g := range nl.Gates() {
		ts.delay[gi] = lib.Delay[g.Kind] + lib.LoadDelayPerFanout*float64(nl.Fanout(g.Out))
	}
	ts.prev = make([]signal.Bit, nl.NumNets())
	return ts, nil
}

// Step applies one pattern and returns the pattern's propagation delay in
// picoseconds: the latest arrival among nets that changed value (0 when
// nothing switched, and for the first pattern, which only establishes
// state).
func (t *TimingSimulator) Step(inputs []signal.Bit) (float64, error) {
	if t.ev == nil {
		ev, err := newEvaluator(t.nl)
		if err != nil {
			return 0, err
		}
		t.ev = ev
	}
	if _, err := t.ev.Eval(inputs); err != nil {
		return 0, err
	}
	var worst float64
	if t.havePrev {
		if t.arrival == nil {
			t.arrival = make([]float64, t.nl.NumNets())
			t.changed = make([]bool, t.nl.NumNets())
		}
		arrival, changed := t.arrival, t.changed
		clear(arrival)
		for id := range changed {
			changed[id] = t.ev.Value(gate.NetID(id)) != t.prev[id]
		}
		gates := t.nl.Gates()
		for _, gi := range t.order {
			g := gates[gi]
			if !changed[g.Out] {
				continue
			}
			// The transition launches from the latest-arriving changed
			// input (inputs that did not change do not gate the event).
			var in float64
			for _, inNet := range g.In {
				if changed[inNet] && arrival[inNet] > in {
					in = arrival[inNet]
				}
			}
			arrival[g.Out] = in + t.delay[gi]
		}
		for _, id := range t.nl.Outputs() {
			if changed[id] && arrival[id] > worst {
				worst = arrival[id]
			}
		}
	}
	for id := 0; id < t.nl.NumNets(); id++ {
		t.prev[id] = t.ev.Value(gate.NetID(id))
	}
	t.havePrev = true
	return worst, nil
}

// newEvaluator builds a simulator's evaluator on its first Step, so a
// provider instance that never asks for power or timing holds no
// evaluation state for them.
func newEvaluator(nl *gate.Netlist) (*gate.Evaluator, error) {
	ev, err := nl.NewEvaluator()
	if err != nil {
		return nil, fmt.Errorf("ppp: %w", err)
	}
	return ev, nil
}

// topoCache memoizes topological orders by netlist pointer identity.
// The provider hands out one canonical, pre-built netlist per bind
// shape, so every timing simulator and critical-path query over a shape
// shares one order; the returned slice is read-only by contract. The
// cache is bounded by the number of distinct netlists analyzed in the
// process.
var topoCache sync.Map // *gate.Netlist → []int

// topoOrder returns gate indices in topological order, memoized per
// netlist (see topoCache).
func topoOrder(nl *gate.Netlist) ([]int, error) {
	if v, ok := topoCache.Load(nl); ok {
		return v.([]int), nil
	}
	order, err := computeTopoOrder(nl)
	if err != nil {
		return nil, err
	}
	v, _ := topoCache.LoadOrStore(nl, order)
	return v.([]int), nil
}

// computeTopoOrder is the uncached Kahn walk behind topoOrder.
func computeTopoOrder(nl *gate.Netlist) ([]int, error) {
	gates := nl.Gates()
	driver := make(map[gate.NetID]int, len(gates))
	for gi, g := range gates {
		driver[g.Out] = gi
	}
	indeg := make([]int, len(gates))
	consumers := make(map[gate.NetID][]int)
	for gi, g := range gates {
		for _, in := range g.In {
			if _, driven := driver[in]; driven {
				indeg[gi]++
			}
			consumers[in] = append(consumers[in], gi)
		}
	}
	queue := make([]int, 0, len(gates))
	for gi, d := range indeg {
		if d == 0 {
			queue = append(queue, gi)
		}
	}
	order := make([]int, 0, len(gates))
	for len(queue) > 0 {
		gi := queue[0]
		queue = queue[1:]
		order = append(order, gi)
		for _, ci := range consumers[gates[gi].Out] {
			indeg[ci]--
			if indeg[ci] == 0 {
				queue = append(queue, ci)
			}
		}
	}
	if len(order) != len(gates) {
		return nil, errors.New("ppp: combinational loop")
	}
	return order, nil
}
