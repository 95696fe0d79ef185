package gocad_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/gate"
	"repro/internal/ppp"
	"repro/internal/signal"
)

// updateGolden rewrites testdata/golden_digests.json from the current
// code. The digests are absolute oracles for the gate, fault and power
// paths: a change that moves every configuration the same way fails
// here even when every relative (config A vs config B) test passes.
// Regenerating them needs this flag plus a CHANGES.md line saying why.
var updateGolden = flag.Bool("update", false, "rewrite testdata/golden_digests.json")

const goldenPath = "testdata/golden_digests.json"

// goldenCase renders one result family as canonical text; the test
// pins the SHA-256 of that text.
type goldenCase struct {
	name   string
	render func(t *testing.T, w *strings.Builder)
}

// TestGoldenDigests checks every golden case against the committed
// digest (or rewrites the file under -update).
func TestGoldenDigests(t *testing.T) {
	cases := goldenCases()
	got := make(map[string]string, len(cases))
	for _, c := range cases {
		var sb strings.Builder
		c.render(t, &sb)
		sum := sha256.Sum256([]byte(sb.String()))
		got[c.name] = hex.EncodeToString(sum[:])
	}
	if *updateGolden {
		buf, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d digests to %s", len(got), goldenPath)
		return
	}
	buf, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (run go test -run TestGoldenDigests -update to create it)", err)
	}
	var want map[string]string
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatal(err)
	}
	for _, c := range cases {
		if w, ok := want[c.name]; !ok {
			t.Errorf("%s: no committed digest", c.name)
		} else if got[c.name] != w {
			t.Errorf("%s: digest %s, golden %s", c.name, got[c.name], w)
		}
	}
	for name := range want {
		if _, ok := got[name]; !ok {
			t.Errorf("%s: committed digest has no case", name)
		}
	}
}

func goldenCases() []goldenCase {
	cases := []goldenCase{
		{"c17/detection-tables", renderC17Tables},
		{"mult8/eval", renderMult8Eval},
		{"mult8/serial", renderMult8Serial},
		{"mult16/ppp", renderMult16Power},
		{"fig4/report", renderFigure4},
		{"counter6/scan", renderScan},
	}
	for _, sc := range []core.Scenario{core.AllLocal, core.EstimatorRemote, core.MultiplierRemote} {
		for _, cache := range []string{"off", "cold", "warm"} {
			cases = append(cases, goldenCase{fmt.Sprintf("table2/%s/cache-%s", sc, cache),
				func(t *testing.T, w *strings.Builder) { renderTable2(t, w, sc, cache) }})
		}
	}
	for _, pct := range goldenFigure3Percents {
		cases = append(cases, goldenCase{fmt.Sprintf("fig3/buffer-%dpct", pct),
			func(t *testing.T, w *strings.Builder) { renderFigure3(t, w, pct) }})
	}
	for seed := int64(1); seed <= 3; seed++ {
		cases = append(cases,
			goldenCase{fmt.Sprintf("twoip%d/tables", seed), func(t *testing.T, w *strings.Builder) { renderTwoIPTables(t, w, seed) }},
			goldenCase{fmt.Sprintf("twoip%d/serial", seed), func(t *testing.T, w *strings.Builder) { renderTwoIPSerial(t, w, seed) }},
			goldenCase{fmt.Sprintf("twoip%d/virtual", seed), func(t *testing.T, w *strings.Builder) { renderTwoIPVirtual(t, w, seed) }},
			goldenCase{fmt.Sprintf("twoip%d/atpg", seed), func(t *testing.T, w *strings.Builder) { renderTwoIPATPG(t, w, seed) }},
			goldenCase{fmt.Sprintf("twoip%d/bridges", seed), func(t *testing.T, w *strings.Builder) { renderTwoIPBridges(t, w, seed) }},
		)
	}
	return cases
}

// goldenTwoIPGates sizes the RandomTwoIPDesign golden designs like the
// fault-campaign benchmark workload (about 400 flattened gates).
const goldenTwoIPGates = 266

var fourValues = [...]signal.Bit{signal.B0, signal.B1, signal.BX, signal.BZ}

// allFourValued returns every n-bit pattern over {0,1,X,Z} in counting
// order.
func allFourValued(n int) [][]signal.Bit {
	total := 1
	for i := 0; i < n; i++ {
		total *= 4
	}
	out := make([][]signal.Bit, total)
	for v := range out {
		p := make([]signal.Bit, n)
		for i, x := 0, v; i < n; i, x = i+1, x/4 {
			p[i] = fourValues[x%4]
		}
		out[v] = p
	}
	return out
}

// seededPatterns draws n patterns of width bits; every xEvery-th bit
// position on average is X or Z (0 disables unknowns).
func seededPatterns(r *rand.Rand, n, width, xEvery int) [][]signal.Bit {
	out := make([][]signal.Bit, n)
	for i := range out {
		p := make([]signal.Bit, width)
		for j := range p {
			switch {
			case xEvery > 0 && r.Intn(xEvery) == 0:
				p[j] = fourValues[2+r.Intn(2)]
			case r.Intn(2) == 1:
				p[j] = signal.B1
			}
		}
		out[i] = p
	}
	return out
}

func bitsString(bs []signal.Bit) string {
	var sb strings.Builder
	for _, b := range bs {
		sb.WriteString(b.String())
	}
	return sb.String()
}

func writeResult(w *strings.Builder, label string, r *fault.Result) {
	fmt.Fprintf(w, "%s total=%d detected=%d\n", label, r.Total, len(r.Detected))
	names := make([]string, 0, len(r.Detected))
	for n := range r.Detected {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %s@%d\n", n, r.Detected[n])
	}
	for i, fs := range r.PerPattern {
		fmt.Fprintf(w, "  p%d: %s\n", i, strings.Join(fs, ","))
	}
}

func writeTables(t *testing.T, w *strings.Builder, svc *fault.LocalTestability, nIn int) {
	t.Helper()
	names, err := svc.FaultList()
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(w, "faults %s\n", strings.Join(names, ","))
	for _, in := range allFourValued(nIn) {
		dt, err := svc.DetectionTable(in)
		if err != nil {
			t.Fatal(err)
		}
		w.WriteString(dt.ParamString())
		w.WriteByte('\n')
	}
}

func renderC17Tables(t *testing.T, w *strings.Builder) {
	for _, internal := range []bool{false, true} {
		svc, err := fault.NewLocalTestability(gate.C17(), fault.NetNames, internal)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(w, "internalOnly=%v\n", internal)
		writeTables(t, w, svc, len(gate.C17().Inputs()))
	}
}

func renderMult8Eval(t *testing.T, w *strings.Builder) {
	nl := gate.ArrayMultiplier(8)
	ev, err := nl.NewEvaluator()
	if err != nil {
		t.Fatal(err)
	}
	ev.CountToggle = true
	r := rand.New(rand.NewSource(8))
	for _, p := range seededPatterns(r, 200, len(nl.Inputs()), 12) {
		out, err := ev.Eval(p)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(w, "%s -> %s |", bitsString(p), bitsString(out))
		for id := 0; id < nl.NumNets(); id++ {
			w.WriteString(ev.Value(gate.NetID(id)).String())
		}
		w.WriteByte('\n')
	}
	fmt.Fprintf(w, "toggles=%d\n", ev.TotalToggles())
	for id := 0; id < nl.NumNets(); id++ {
		fmt.Fprintf(w, "%d ", ev.Toggles(gate.NetID(id)))
	}
	w.WriteByte('\n')
}

func renderMult8Serial(t *testing.T, w *strings.Builder) {
	nl := gate.ArrayMultiplier(8)
	r := rand.New(rand.NewSource(88))
	pats := seededPatterns(r, 150, len(nl.Inputs()), 20)
	res, err := fault.SerialSimulate(nl, pats)
	if err != nil {
		t.Fatal(err)
	}
	writeResult(w, "mult8", res)
}

func renderMult16Power(t *testing.T, w *strings.Builder) {
	nl := gate.ArrayMultiplier(16)
	r := rand.New(rand.NewSource(16))
	pats := seededPatterns(r, 120, len(nl.Inputs()), 0)
	ps, err := ppp.NewSimulator(nl, nil)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := ps.Run(pats)
	if err != nil {
		t.Fatal(err)
	}
	g := func(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }
	fmt.Fprintf(w, "patterns=%d avg=%s peak=%s toggles=%d energy=%s\n",
		rep.Patterns, g(rep.AvgPower), g(rep.PeakPower), rep.TotalToggles, g(rep.TotalEnergy))
	for _, p := range rep.PerPattern {
		w.WriteString(g(p) + " ")
	}
	w.WriteByte('\n')
	ts, err := ppp.NewTimingSimulator(nl, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pats {
		d, err := ts.Step(p)
		if err != nil {
			t.Fatal(err)
		}
		w.WriteString(g(d) + " ")
	}
	w.WriteByte('\n')
}

func renderFigure4(t *testing.T, w *strings.Builder) {
	rep, err := core.RunFigure4(1)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(w, "faults %s\ntable %s\n1100 %s\n1101 %s\ncoverage %s\n",
		strings.Join(rep.FaultList, ","), rep.Table.ParamString(),
		strings.Join(rep.Detected1100, ","), strings.Join(rep.Detected1101, ","),
		strconv.FormatFloat(rep.CoverageAfter2, 'g', -1, 64))
}

// goldenTable2Config is the Table 2 size of the core package's scenario
// tests (its smallConfig): 8-bit operands, 20 patterns, buffer 5.
func goldenTable2Config() core.Config {
	cfg := core.DefaultConfig()
	cfg.Width = 8
	cfg.Patterns = 20
	cfg.BufferSize = 5
	return cfg
}

// renderTable2 writes the Result.Fingerprint of one Table 2 scenario
// with the estimation cache off, cold (fresh) or warm (a second run on
// the cache the first one filled). The digest is the SHA-256 of the
// fingerprint alone, so internal/core's parity matrix checks its cells
// against these entries directly.
func renderTable2(t *testing.T, w *strings.Builder, sc core.Scenario, cache string) {
	cfg := goldenTable2Config()
	if cache != "off" {
		cfg.Cache = core.NewEstimationCache()
	}
	if cache == "warm" {
		if _, err := core.Run(sc, cfg); err != nil {
			t.Fatal(err)
		}
	}
	res, err := core.Run(sc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	w.WriteString(res.Fingerprint())
}

// goldenFigure3Percents are the buffer sizes TestFigure3MonotoneShape
// sweeps, on its 8-bit, 40-pattern design.
var goldenFigure3Percents = []int{5, 25, 100}

// renderFigure3 writes one Figure 3 point: its call count and the
// fingerprint of its ER-over-WAN run. Wall-clock columns are left out.
func renderFigure3(t *testing.T, w *strings.Builder, pct int) {
	cfg := core.DefaultConfig()
	cfg.Width = 8
	cfg.Patterns = 40
	res, err := core.Run(core.EstimatorRemote, core.Figure3Config(cfg, pct))
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(w, "buffer=%d%% calls=%d %s\n", pct, res.Calls, res.Fingerprint())
}

func renderScan(t *testing.T, w *strings.Builder) {
	seq, err := gate.SequentialCounter(6)
	if err != nil {
		t.Fatal(err)
	}
	res, err := fault.ScanSimulate(seq, fault.RandomScanPatterns(seq, 32, 9))
	if err != nil {
		t.Fatal(err)
	}
	writeResult(w, "scan", res)
}

func twoIP(t *testing.T, seed int64) *fault.IPDesign {
	t.Helper()
	d, err := fault.RandomTwoIPDesign(goldenTwoIPGates, seed)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// twoIPPatterns is the exhaustive 4-input set followed by seeded
// patterns with unknowns, long enough to span two 64-pattern blocks.
func twoIPPatterns(seed int64) [][]signal.Bit {
	pats := make([][]signal.Bit, 0, 96)
	for v := 0; v < 16; v++ {
		p := make([]signal.Bit, 4)
		for i := range p {
			if v>>i&1 == 1 {
				p[i] = signal.B1
			}
		}
		pats = append(pats, p)
	}
	r := rand.New(rand.NewSource(seed * 101))
	return append(pats, seededPatterns(r, 80, 4, 6)...)
}

func renderTwoIPTables(t *testing.T, w *strings.Builder, seed int64) {
	d := twoIP(t, seed)
	for _, h := range d.Hosts {
		svc := h.Service.(*fault.LocalTestability)
		fmt.Fprintf(w, "host %s\n", h.Module.ModuleName())
		writeTables(t, w, svc, len(h.Module.InputPorts()))
	}
}

func renderTwoIPSerial(t *testing.T, w *strings.Builder, seed int64) {
	d := twoIP(t, seed)
	pats := twoIPPatterns(seed)
	res, err := fault.SerialSimulate(d.Flat, pats)
	if err != nil {
		t.Fatal(err)
	}
	writeResult(w, "flat-collapsed", res)
	names, err := d.NewVirtual().BuildFaultList()
	if err != nil {
		t.Fatal(err)
	}
	flat := make([]gate.Fault, len(names))
	for i, q := range names {
		if flat[i], err = d.FlatFaultFor(q); err != nil {
			t.Fatal(err)
		}
	}
	res, err = fault.SerialSimulateFaults(d.Flat, flat, pats)
	if err != nil {
		t.Fatal(err)
	}
	writeResult(w, "flat-virtual-list", res)
}

func renderTwoIPVirtual(t *testing.T, w *strings.Builder, seed int64) {
	d := twoIP(t, seed)
	vs := d.NewVirtual()
	vs.Workers = 1
	res, err := vs.Run(twoIPPatterns(seed)[:16])
	if err != nil {
		t.Fatal(err)
	}
	writeResult(w, "virtual", res)
	fmt.Fprintf(w, "stats %+v\n", vs.Stats)
}

func renderTwoIPATPG(t *testing.T, w *strings.Builder, seed int64) {
	d := twoIP(t, seed)
	for _, nl := range []*gate.Netlist{d.Flat, d.Hosts[0].Module.(interface{ Netlist() *gate.Netlist }).Netlist()} {
		ts, err := fault.GenerateTests(nl, 200, seed)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(w, "%s candidates=%d coverage=%s\n", nl.Name, ts.Candidates,
			strconv.FormatFloat(ts.Coverage, 'g', -1, 64))
		for _, p := range ts.Patterns {
			w.WriteString(bitsString(p) + "\n")
		}
	}
}

func renderTwoIPBridges(t *testing.T, w *strings.Builder, seed int64) {
	d := twoIP(t, seed)
	r := rand.New(rand.NewSource(seed * 7))
	var bridges []gate.Bridge
	for i := 0; i < 40; i++ {
		a := gate.NetID(r.Intn(d.Flat.NumNets()))
		b := gate.NetID(r.Intn(d.Flat.NumNets()))
		bridges = append(bridges, gate.Bridge{A: a, B: b})
	}
	res, err := fault.SerialSimulateBridges(d.Flat, bridges, twoIPPatterns(seed))
	if err != nil {
		t.Fatal(err)
	}
	writeResult(w, "bridges", res)
}
