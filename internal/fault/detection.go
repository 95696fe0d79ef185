package fault

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"
	"sync"

	"repro/internal/gate"
	"repro/internal/signal"
)

// DetectionTable is the partial representation of a component's
// testability corresponding to ONE input configuration: for that input
// pattern, each row associates an erroneous output pattern with the list
// of symbolic internal faults that would cause it. It is a local,
// IP-sensitive parameter — the provider evaluates it independently for a
// given input pattern and returns it to the user, who uses it for fault
// injection and propagation but learns nothing about the component's
// structure beyond input/output behavior under fault.
//
// DetectionTable implements estim.ParamValue, so it flows through the
// standard estimation machinery (it is "nothing but a local, IP-sensitive
// parameter").
type DetectionTable struct {
	// Input is the input configuration the table corresponds to.
	Input signal.Word
	// FaultFree is the component's good output pattern for Input.
	FaultFree signal.Word
	// Rows maps each erroneous output pattern to the symbolic faults
	// producing it.
	Rows []DetectionRow
}

// DetectionRow is one (erroneous output, fault list) association.
type DetectionRow struct {
	Output signal.Word
	Faults []string
}

// ParamString renders the table compactly for reports.
func (dt *DetectionTable) ParamString() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "in=%s good=%s", dt.Input, dt.FaultFree)
	for _, r := range dt.Rows {
		fmt.Fprintf(&sb, " %s:{%s}", r.Output, strings.Join(r.Faults, ","))
	}
	return sb.String()
}

// IsNull reports false.
func (dt *DetectionTable) IsNull() bool { return false }

// Row returns the row for an erroneous output pattern, if present.
func (dt *DetectionTable) Row(out signal.Word) (DetectionRow, bool) {
	for _, r := range dt.Rows {
		if r.Output.Equal(out) {
			return r, true
		}
	}
	return DetectionRow{}, false
}

// OutputFor returns the erroneous output pattern associated with a
// symbolic fault, if the fault is excited by this input configuration.
func (dt *DetectionTable) OutputFor(fault string) (signal.Word, bool) {
	for _, r := range dt.Rows {
		for _, f := range r.Faults {
			if f == fault {
				return r.Output, true
			}
		}
	}
	return signal.Word{}, false
}

// Faults returns all symbolic faults excited by this input configuration.
func (dt *DetectionTable) Faults() []string {
	var out []string
	for _, r := range dt.Rows {
		out = append(out, r.Faults...)
	}
	sort.Strings(out)
	return out
}

// TestabilityService is the provider-side interface of virtual fault
// simulation: phase one publishes the symbolic fault list; phase two
// answers per-pattern detection-table queries. The local implementation
// below wraps a netlist directly; internal/provider exposes the same
// interface across the network.
type TestabilityService interface {
	// FaultList returns the component's symbolic fault list.
	FaultList() ([]string, error)
	// DetectionTable returns the detection table for one input
	// configuration (component inputs in port order).
	DetectionTable(inputs []signal.Bit) (*DetectionTable, error)
}

// LocalTestability serves testability queries from a private netlist —
// the code that runs on the IP provider's server. Construction
// precomputes the collapsed fault list; each DetectionTable call runs one
// fault simulation sweep over the component alone, 64 faults per pass of
// the word evaluator.
type LocalTestability struct {
	nl   *gate.Netlist
	list *SymbolicList
	// faults is list's internal faults in publication order.
	faults []gate.Fault
	// cacheMu guards cache and the evaluation scratch below: one service
	// instance may be shared across hosts, and the virtual simulator
	// queries hosts concurrently.
	cacheMu sync.Mutex
	// cache maps packed input words to computed tables; detection tables
	// depend only on the input configuration, so the provider can serve
	// repeated patterns (the paper's example: patterns 1100 and 1101 lead
	// to the same component inputs) without recomputation.
	cache map[string]*DetectionTable
	// ev evaluates one fault per lane (built by the first query); good
	// holds the fault-free output planes and key the row-key scratch of
	// the query in progress.
	ev   *gate.Evaluator
	good []gate.Planes
	key  []byte
}

// NewLocalTestability returns a testability service over the netlist.
// With internalOnly set, the published fault list excludes pure port
// faults (the usual configuration: port faults belong to the user's side
// of the boundary).
func NewLocalTestability(nl *gate.Netlist, policy Naming, internalOnly bool) (*LocalTestability, error) {
	if err := nl.Build(); err != nil {
		return nil, err
	}
	list := buildSymbolicList(nl, policy, internalOnly)
	faults := make([]gate.Fault, len(list.names))
	for i, name := range list.names {
		faults[i] = list.toFault[name]
	}
	return &LocalTestability{
		nl:     nl,
		list:   list,
		faults: faults,
		cache:  make(map[string]*DetectionTable),
		good:   make([]gate.Planes, len(nl.Outputs())),
		key:    make([]byte, len(nl.Outputs())),
	}, nil
}

// Symbolic returns the underlying symbolic list (provider-side use).
func (lt *LocalTestability) Symbolic() *SymbolicList { return lt.list }

// FaultList implements TestabilityService.
func (lt *LocalTestability) FaultList() ([]string, error) { return lt.list.Names(), nil }

// DetectionTable implements TestabilityService: it computes, for the
// given component input configuration, the component's fault-free output
// and every erroneous output pattern reachable under a single internal
// stuck-at fault, grouped by output pattern. Faults are simulated 64 at
// a time, one per lane, against the broadcast input; a fault is listed
// when all outputs are known and differ from the fault-free word. Rows
// appear in the fault-list order of their first fault.
func (lt *LocalTestability) DetectionTable(inputs []signal.Bit) (*DetectionTable, error) {
	if len(inputs) != len(lt.nl.Inputs()) {
		return nil, fmt.Errorf("fault: component %s has %d inputs, got %d",
			lt.nl.Name, len(lt.nl.Inputs()), len(inputs))
	}
	// The whole computation runs under the lock: concurrent callers with
	// the same pattern coalesce on one sweep, and the evaluator scratch
	// is never shared.
	lt.cacheMu.Lock()
	defer lt.cacheMu.Unlock()
	key := packBits(inputs)
	if dt, ok := lt.cache[key]; ok {
		return dt, nil
	}
	if lt.ev == nil {
		ev, err := lt.nl.NewEvaluator()
		if err != nil {
			return nil, err
		}
		lt.ev = ev
	}
	ev := lt.ev
	ev.ClearFaults()
	if _, err := ev.Eval(inputs); err != nil {
		return nil, err
	}
	for i := range lt.good {
		lt.good[i] = ev.OutputPlanes(i)
	}
	inWord := signal.Word{Bits: append([]signal.Bit(nil), inputs...)}
	dt := &DetectionTable{Input: inWord, FaultFree: ev.OutputWord()}
	rowIdx := make(map[string]int)
	for base := 0; base < len(lt.faults); base += gate.Lanes {
		chunk := lt.faults[base:min(base+gate.Lanes, len(lt.faults))]
		for hits := lt.excitedLanes(inputs, chunk); hits != 0; hits &= hits - 1 {
			lane := bits.TrailingZeros64(hits)
			name := lt.list.names[base+lane]
			for i := range lt.key {
				lt.key[i] = "01"[ev.OutputPlanes(i).One>>uint(lane)&1]
			}
			if i, ok := rowIdx[string(lt.key)]; ok {
				dt.Rows[i].Faults = append(dt.Rows[i].Faults, name)
				continue
			}
			rowIdx[string(lt.key)] = len(dt.Rows)
			bad := signal.NewWord(len(lt.key))
			for i := range bad.Bits {
				bad.Bits[i] = ev.OutputPlanes(i).Bit(lane)
			}
			dt.Rows = append(dt.Rows, DetectionRow{Output: bad, Faults: []string{name}})
		}
	}
	for i := range dt.Rows {
		sort.Strings(dt.Rows[i].Faults)
	}
	lt.cache[key] = dt
	return dt, nil
}

// excitedLanes simulates chunk[l] in lane l against the broadcast input
// and returns the lanes whose outputs are all known and differ from the
// fault-free planes in lt.good. The caller holds cacheMu and has
// validated the input width.
//
//gocad:noalloc
func (lt *LocalTestability) excitedLanes(inputs []signal.Bit, chunk []gate.Fault) uint64 {
	ev := lt.ev
	evalFaultLanes(ev, inputs, chunk)
	known, same := ^uint64(0), ^uint64(0)
	for i, g := range lt.good {
		o := ev.OutputPlanes(i)
		known &= o.One ^ o.Zero
		same &^= (o.One ^ g.One) | (o.Zero ^ g.Zero)
	}
	return known &^ same & laneMask(len(chunk))
}

// evalFaultLanes evaluates chunk[l] in lane l (at most gate.Lanes
// faults) against the broadcast pattern, whose width the caller has
// validated.
//
//gocad:noalloc
func evalFaultLanes(ev *gate.Evaluator, pattern []signal.Bit, chunk []gate.Fault) {
	ev.ClearFaults()
	for l, f := range chunk {
		ev.SetLaneFault(l, f)
	}
	ev.Eval(pattern)
}

// laneMask returns the mask of the first n lanes.
func laneMask(n int) uint64 {
	if n >= gate.Lanes {
		return ^uint64(0)
	}
	return 1<<uint(n) - 1
}

// packBits renders a bit slice as a compact cache key.
func packBits(bits []signal.Bit) string {
	b := make([]byte, len(bits))
	for i, v := range bits {
		b[i] = "01XZ"[v&3]
	}
	return string(b)
}
