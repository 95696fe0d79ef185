// Benchmarks regenerating the paper's evaluation. Each table and figure
// has a dedicated benchmark (scaled down so `go test -bench` completes
// in seconds; cmd/experiments runs the full-size versions):
//
//	BenchmarkTable1EstimatorAccuracy  — Table 1 (estimator comparison)
//	BenchmarkTable2Scenarios          — Table 2 (AL/ER/MR × local/LAN/WAN)
//	BenchmarkFigure3BufferSweep       — Figure 3 (buffer-size sweep)
//	BenchmarkFigure4VirtualFaultSim   — Figures 4/5 (virtual fault sim)
//
// The micro-benchmarks below them quantify the substrate costs the
// paper's numbers decompose into (kernel throughput, gate evaluation,
// power simulation, detection tables, RMI round trips).
package gocad_test

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	gocad "repro"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/gate"
	"repro/internal/module"
	"repro/internal/netsim"
	"repro/internal/ppp"
	"repro/internal/security"
	"repro/internal/shard"
	"repro/internal/signal"
	"repro/internal/sim"
)

// BenchmarkTable1EstimatorAccuracy regenerates Table 1: calibrating and
// scoring the constant and linear-regression power models against the
// gate-level reference.
func BenchmarkTable1EstimatorAccuracy(b *testing.B) {
	cfg := core.Table1Config{Width: 8, Train: 50, Evaluate: 50, Seed: 7}
	for i := 0; i < b.N; i++ {
		rows, err := core.RunTable1(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 3 {
			b.Fatal("bad table")
		}
	}
}

// BenchmarkTable2Scenarios regenerates the Table 2 grid, one
// sub-benchmark per row.
func BenchmarkTable2Scenarios(b *testing.B) {
	for _, cell := range core.Table2Grid() {
		name := fmt.Sprintf("%s-%s", cell.Scenario, cell.Profile.Name)
		b.Run(name, func(b *testing.B) {
			cfg := core.DefaultConfig()
			cfg.Width = 8
			cfg.Patterns = 20
			cfg.Profile = cell.Profile
			for i := 0; i < b.N; i++ {
				res, err := core.Run(cell.Scenario, cfg)
				if err != nil {
					b.Fatal(err)
				}
				if res.Products == 0 {
					b.Fatal("no products")
				}
			}
		})
	}
}

// BenchmarkShardedSimulation runs one seeded generated design — roughly
// ten times the size of the paper's Figure 2 benchmark — through the
// shard engine at increasing shard counts. Results are bit-identical at
// every count (the shard determinism matrix proves that); this measures
// what partitioning buys and what barriers cost.
func BenchmarkShardedSimulation(b *testing.B) {
	spec := core.GenSpec{Inputs: 8, Layers: 5, LayerOps: 8, Width: 16, Patterns: 60}
	circuit, _ := core.GenerateCircuitRand(rand.New(rand.NewSource(1999)), spec)
	b.Logf("generated design: %d leaf modules", len(circuit.Leaves()))
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards%d", shards), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				stats := shard.Run(circuit, shard.Options{Shards: shards})
				if stats.Err != nil {
					b.Fatal(stats.Err)
				}
				if stats.Delivered == 0 {
					b.Fatal("empty run")
				}
			}
		})
	}
}

// BenchmarkFigure3BufferSweep regenerates Figure 3's buffer-size points.
func BenchmarkFigure3BufferSweep(b *testing.B) {
	for _, pct := range []int{5, 25, 50, 100} {
		b.Run(fmt.Sprintf("buffer%d%%", pct), func(b *testing.B) {
			cfg := core.DefaultConfig()
			cfg.Width = 8
			cfg.Patterns = 20
			for i := 0; i < b.N; i++ {
				pts, err := core.RunFigure3(cfg, []int{pct})
				if err != nil {
					b.Fatal(err)
				}
				if len(pts) != 1 {
					b.Fatal("bad sweep")
				}
			}
		})
	}
}

// BenchmarkFigure4VirtualFaultSim regenerates the Figure 4/5 worked
// example: two-phase virtual fault simulation of the half-adder design,
// at the legacy serial worker count and with the full worker pool.
func BenchmarkFigure4VirtualFaultSim(b *testing.B) {
	for _, bc := range []struct {
		name    string
		workers int
	}{{"workers1", 1}, {"workersNumCPU", 0}} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rep, err := core.RunFigure4(bc.workers)
				if err != nil {
					b.Fatal(err)
				}
				if len(rep.FaultList) == 0 {
					b.Fatal("empty fault list")
				}
			}
		})
	}
}

// BenchmarkVirtualVsSerialFaultSim is the protocol-cost ablation: virtual
// fault simulation (per-pattern tables + injections) versus flat serial
// simulation of the same flattened design, each at worker counts 1
// (legacy serial) and NumCPU. The two-IP design exercises the full
// fan-out: concurrent detection-table queries to both providers plus the
// per-row injection pool.
func BenchmarkVirtualVsSerialFaultSim(b *testing.B) {
	d, err := fault.RandomTwoIPDesign(60, 11)
	if err != nil {
		b.Fatal(err)
	}
	var patterns [][]signal.Bit
	for v := uint64(0); v < 16; v++ {
		p := make([]signal.Bit, 4)
		for i := range p {
			if v&(1<<uint(i)) != 0 {
				p[i] = signal.B1
			}
		}
		patterns = append(patterns, p)
	}
	workerCounts := []struct {
		name    string
		workers int
	}{{"workers1", 1}, {"workersNumCPU", 0}}
	for _, bc := range workerCounts {
		b.Run("virtual/"+bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				d, err := fault.RandomTwoIPDesign(60, 11)
				if err != nil {
					b.Fatal(err)
				}
				vs := d.NewVirtual()
				vs.Workers = bc.workers
				if _, err := vs.Run(patterns); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	for _, bc := range workerCounts {
		b.Run("serial-flat/"+bc.name, func(b *testing.B) {
			faults := fault.Collapse(d.Flat)
			for i := 0; i < b.N; i++ {
				if _, err := fault.SerialSimulateFaultsWorkers(d.Flat, faults, patterns, bc.workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSchedulerThroughput measures raw kernel token delivery. The
// post-pop sub-benchmark isolates the queue cost itself (post/pop of
// preallocated tokens); internal/sim's BenchmarkArenaTokenDelivery
// covers the arena signal-token path.
func BenchmarkSchedulerThroughput(b *testing.B) {
	h := &nullHandler{}
	b.Run("run1000", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s := sim.NewScheduler()
			for t := sim.Time(1); t <= 1000; t++ {
				s.Post(&sim.SelfToken{T: t, Dst: h})
			}
			if err := s.Run(nil, sim.RunOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("post-pop", func(b *testing.B) {
		// One preallocated token per queue slot: the measured cost is the
		// heap push/pop and delivery machinery alone.
		const q = 1024
		toks := make([]*sim.SelfToken, q)
		for i := range toks {
			toks[i] = &sim.SelfToken{Dst: h}
		}
		s := sim.NewScheduler()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i += q {
			base := s.Now() + 1
			for j := range toks {
				toks[j].T = base + sim.Time(j)
				s.Post(toks[j])
			}
			if err := s.Run(nil, sim.RunOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

type nullHandler struct{}

func (*nullHandler) HandlerName() string                 { return "null" }
func (*nullHandler) HandleToken(*sim.Context, sim.Token) {}

// BenchmarkGateEval measures levelized netlist evaluation of the 16-bit
// array multiplier (the provider-side cost of one MR functional call).
func BenchmarkGateEval(b *testing.B) {
	nl := gate.ArrayMultiplier(16)
	ev, err := nl.NewEvaluator()
	if err != nil {
		b.Fatal(err)
	}
	in := nl.InputWord(0xDEAD_BEEF)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ev.Eval(in); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPowerStep measures one PPP power-simulation step (the
// provider-side cost of one buffered pattern).
func BenchmarkPowerStep(b *testing.B) {
	nl := gate.ArrayMultiplier(16)
	s, err := ppp.NewSimulator(nl, nil)
	if err != nil {
		b.Fatal(err)
	}
	a := nl.InputWord(0x1234_5678)
	c := nl.InputWord(0x8765_4321)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Step(a); err != nil {
			b.Fatal(err)
		}
		a, c = c, a
	}
}

// BenchmarkDetectionTable measures building one detection table for the
// 8-bit multiplier — the provider-side cost of one phase-two query.
func BenchmarkDetectionTable(b *testing.B) {
	nl := gate.ArrayMultiplier(8)
	lt, err := fault.NewLocalTestability(nl, fault.NetNames, true)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Vary the input so the provider cache does not short-circuit.
		in := nl.InputWord(uint64(i))
		if _, err := lt.DetectionTable(in); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRMIRoundTrip measures one remote call on the in-process
// transport without emulated delay (the marshalling floor of Table 2).
func BenchmarkRMIRoundTrip(b *testing.B) {
	prov := gocad.NewProvider("bench")
	if err := prov.Register(gocad.MultFastLowPower()); err != nil {
		b.Fatal(err)
	}
	conn, err := gocad.ConnectInProcess(prov, "bench-user", netsim.InProcess)
	if err != nil {
		b.Fatal(err)
	}
	defer conn.Close()
	inst, err := conn.Client.Bind("MultFastLowPower", 8, nil)
	if err != nil {
		b.Fatal(err)
	}
	nl := gate.ArrayMultiplier(8)
	in := nl.InputWord(0x3CA5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := inst.Eval(in); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRMIPipeline measures pipelined transport throughput under an
// emulated 20ms-RTT WAN: `depth` concurrent callers issue power batches
// over one connection with MaxInFlight=depth. Depth 1 reproduces
// stop-and-wait (every call pays the full round trip serially); deeper
// pipelines overlap the emulated delay, so ns/op must fall by ≥2x at
// depth 8.
func BenchmarkRMIPipeline(b *testing.B) {
	for _, depth := range []int{1, 8, 32} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			prov := gocad.NewProvider("bench")
			if err := prov.Register(gocad.MultFastLowPower()); err != nil {
				b.Fatal(err)
			}
			profile := netsim.Profile{Name: "bench-wan", OneWay: 10 * time.Millisecond}
			conn, err := gocad.ConnectInProcess(prov, "bench-user", profile)
			if err != nil {
				b.Fatal(err)
			}
			defer conn.Close()
			conn.Client.RPC.MaxInFlight = depth
			inst, err := conn.Client.Bind("MultFastLowPower", 8, nil)
			if err != nil {
				b.Fatal(err)
			}
			batch := [][]signal.Bit{make([]signal.Bit, 16), make([]signal.Bit, 16)}
			b.ResetTimer()
			work := make(chan struct{})
			var wg sync.WaitGroup
			errCh := make(chan error, depth)
			for w := 0; w < depth; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for range work {
						// SkipCompute isolates transport throughput from
						// the provider's power simulator.
						if _, err := inst.PowerBatch(batch, true); err != nil {
							errCh <- err
							return
						}
					}
				}()
			}
			for i := 0; i < b.N; i++ {
				work <- struct{}{}
			}
			close(work)
			wg.Wait()
			b.StopTimer()
			select {
			case err := <-errCh:
				b.Fatal(err)
			default:
			}
		})
	}
}

// BenchmarkEstimationCacheRepeatedRuns quantifies the content-addressed
// estimation cache on the repeated-stimulus workload it targets (same
// seed, same design — the Table 2 grid re-running a cell): with a shared
// warm cache every batch is served locally. The hit-rate metric is the
// fraction of batch lookups that stayed off the wire.
func BenchmarkEstimationCacheRepeatedRuns(b *testing.B) {
	base := core.DefaultConfig()
	base.Width = 8
	base.Patterns = 20
	base.Profile = netsim.Profile{Name: "bench-wan", OneWay: 2 * time.Millisecond}
	b.Run("cache=off", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.Run(core.EstimatorRemote, base); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cache=shared", func(b *testing.B) {
		cfg := base
		cfg.Cache = core.NewEstimationCache()
		if _, err := core.Run(core.EstimatorRemote, cfg); err != nil { // warm the cache
			b.Fatal(err)
		}
		var hits, lookups int64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := core.Run(core.EstimatorRemote, cfg)
			if err != nil {
				b.Fatal(err)
			}
			hits += res.CacheHits
			lookups += res.CacheHits + res.CacheMisses
		}
		b.StopTimer()
		if lookups > 0 {
			b.ReportMetric(float64(hits)/float64(lookups), "hit-rate")
		}
	})
}

// BenchmarkFigure2Simulation measures the AL design end to end per
// pattern (the kernel + module-library cost under Table 2's AL row).
func BenchmarkFigure2Simulation(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a := module.NewWordConnector("A", 16)
		ar := module.NewWordConnector("AR", 16)
		bb := module.NewWordConnector("B", 16)
		br := module.NewWordConnector("BR", 16)
		o := module.NewWordConnector("O", 32)
		ina := module.NewRandomPrimaryInput("INA", 16, 1, 100, 10, a)
		rega := module.NewRegister("REGA", 16, a, ar)
		inb := module.NewRandomPrimaryInput("INB", 16, 2, 100, 10, bb)
		regb := module.NewRegister("REGB", 16, bb, br)
		mult := module.NewMult("MULT", 16, ar, br, o)
		out := module.NewPrimaryOutput("OUT", 32, o)
		simu := module.NewSimulation(module.NewCircuit("fig2", ina, rega, inb, regb, mult, out))
		if st := simu.Start(nil); st.Err != nil {
			b.Fatal(st.Err)
		}
	}
}

// BenchmarkConcurrentSetups measures the kernel's concurrent-scheduler
// scaling (the paper's threads-based concurrent simulations).
func BenchmarkConcurrentSetups(b *testing.B) {
	for _, n := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("setups%d", n), func(b *testing.B) {
			a := module.NewWordConnector("A", 8)
			o := module.NewWordConnector("O", 8)
			in := module.NewRandomPrimaryInput("IN", 8, 1, 200, 5, a)
			reg := module.NewRegister("REG", 8, a, o)
			out := module.NewPrimaryOutput("OUT", 8, o)
			simu := module.NewSimulation(module.NewCircuit("c", in, reg, out))
			for i := 0; i < b.N; i++ {
				setups := make([]*gocad.Setup, n)
				stats := simu.StartConcurrent(setups)
				for _, st := range stats {
					if st.Err != nil {
						b.Fatal(st.Err)
					}
				}
				out.ClearHistory()
			}
		})
	}
}

// ---------------------------------------------------------------------
// Ablation benchmarks for the design choices DESIGN.md calls out.
// ---------------------------------------------------------------------

// BenchmarkAblationFaultCollapsing quantifies what structural equivalence
// collapsing buys: the size of the target fault list and the serial
// simulation time with and without it.
func BenchmarkAblationFaultCollapsing(b *testing.B) {
	nl := gate.ArrayMultiplier(6)
	var patterns [][]signal.Bit
	for v := uint64(0); v < 64; v++ {
		patterns = append(patterns, nl.InputWord(v*2654435761%4096))
	}
	b.Run("collapsed", func(b *testing.B) {
		faults := fault.Collapse(nl)
		b.ReportMetric(float64(len(faults)), "faults")
		for i := 0; i < b.N; i++ {
			if _, err := fault.SerialSimulateFaults(nl, faults, patterns); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("uncollapsed", func(b *testing.B) {
		faults := fault.Enumerate(nl)
		b.ReportMetric(float64(len(faults)), "faults")
		for i := 0; i < b.N; i++ {
			if _, err := fault.SerialSimulateFaults(nl, faults, patterns); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationMarshalPolicy measures the cost of the default-deny
// marshalling check on a realistic buffered-pattern payload.
func BenchmarkAblationMarshalPolicy(b *testing.B) {
	patterns := make([][]signal.Bit, 50)
	for i := range patterns {
		patterns[i] = make([]signal.Bit, 32)
	}
	p := security.MarshalPolicy{}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := p.CheckOutbound(patterns); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationGateModuleVsNetlistModule compares simulating a
// gate-level block as one NetlistModule (one event-driven component
// evaluating a levelized netlist) against discrete per-gate modules (one
// token per gate evaluation) — the granularity choice of the design
// model.
func BenchmarkAblationGateModuleVsNetlistModule(b *testing.B) {
	const width = 4
	mkPatterns := func() []signal.Value {
		var out []signal.Value
		for v := uint64(0); v < 32; v++ {
			out = append(out, signal.WordValue{W: signal.WordFromUint64(v*7%256, 2*width)})
		}
		return out
	}
	b.Run("netlist-module", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			nl := gate.RippleAdder(width)
			w := module.NewWordConnector("w", 2*width)
			bits := make([]*module.Connector, 2*width)
			for j := range bits {
				bits[j] = module.NewBitConnector(fmt.Sprintf("b%d", j))
			}
			outBits := make([]*module.Connector, width+1)
			for j := range outBits {
				outBits[j] = module.NewBitConnector(fmt.Sprintf("o%d", j))
			}
			ow := module.NewWordConnector("ow", width+1)
			in := module.NewPatternInput("in", 2*width, mkPatterns(), 10, w)
			split := module.NewWordToBits("split", 2*width, w, bits)
			nm := module.NewNetlistModule("rca", nl, bits, outBits)
			join := module.NewBitsToWord("join", width+1, outBits, ow)
			po := module.NewPrimaryOutput("po", width+1, ow)
			s := module.NewSimulation(module.NewCircuit("c", in, split, nm, join, po))
			if st := s.Start(nil); st.Err != nil {
				b.Fatal(st.Err)
			}
		}
	})
	b.Run("per-gate-modules", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			w := module.NewWordConnector("w", 2*width)
			bits := make([]*module.Connector, 2*width)
			for j := range bits {
				bits[j] = module.NewBitConnector(fmt.Sprintf("b%d", j))
			}
			in := module.NewPatternInput("in", 2*width, mkPatterns(), 10, w)
			split := module.NewWordToBits("split", 2*width, w, bits)
			circuit := module.NewCircuit("c", in, split)
			// Build the ripple adder from discrete gate modules.
			newConn := func(name string) *module.Connector { return module.NewBitConnector(name) }
			outBits := make([]*module.Connector, width+1)
			var carry *module.Connector
			for k := 0; k < width; k++ {
				a, bc := bits[k], bits[width+k]
				sum := newConn(fmt.Sprintf("s%d", k))
				outBits[k] = sum
				if k == 0 {
					carry = newConn("c0")
					ha1, ha2 := newConn("ha_a1"), newConn("ha_a2")
					hb1, hb2 := newConn("ha_b1"), newConn("ha_b2")
					circuit.Add(
						module.NewFanout("ha_foa", 1, a, []*module.Connector{ha1, ha2}, nil),
						module.NewFanout("ha_fob", 1, bc, []*module.Connector{hb1, hb2}, nil),
						module.NewGateModule(fmt.Sprintf("x%d", k), gate.Xor, []*module.Connector{ha1, hb1}, sum),
						module.NewGateModule(fmt.Sprintf("a%d", k), gate.And, []*module.Connector{ha2, hb2}, carry),
					)
					continue
				}
				// Full adder: fan out a, b, cin to the two stages.
				a1, a2 := newConn(fmt.Sprintf("a1_%d", k)), newConn(fmt.Sprintf("a2_%d", k))
				b1, b2 := newConn(fmt.Sprintf("b1_%d", k)), newConn(fmt.Sprintf("b2_%d", k))
				c1, c2 := newConn(fmt.Sprintf("c1_%d", k)), newConn(fmt.Sprintf("c2_%d", k))
				ab, ab1, ab2 := newConn(fmt.Sprintf("ab%d", k)), newConn(fmt.Sprintf("ab1_%d", k)), newConn(fmt.Sprintf("ab2_%d", k))
				t1, t2 := newConn(fmt.Sprintf("t1_%d", k)), newConn(fmt.Sprintf("t2_%d", k))
				cout := newConn(fmt.Sprintf("c%d", k))
				circuit.Add(
					module.NewFanout(fmt.Sprintf("foa%d", k), 1, a, []*module.Connector{a1, a2}, nil),
					module.NewFanout(fmt.Sprintf("fob%d", k), 1, bc, []*module.Connector{b1, b2}, nil),
					module.NewFanout(fmt.Sprintf("foc%d", k), 1, carry, []*module.Connector{c1, c2}, nil),
					module.NewGateModule(fmt.Sprintf("xab%d", k), gate.Xor, []*module.Connector{a1, b1}, ab),
					module.NewFanout(fmt.Sprintf("foab%d", k), 1, ab, []*module.Connector{ab1, ab2}, nil),
					module.NewGateModule(fmt.Sprintf("xs%d", k), gate.Xor, []*module.Connector{ab1, c1}, sum),
					module.NewGateModule(fmt.Sprintf("ac%d", k), gate.And, []*module.Connector{ab2, c2}, t1),
					module.NewGateModule(fmt.Sprintf("aab%d", k), gate.And, []*module.Connector{a2, b2}, t2),
					module.NewGateModule(fmt.Sprintf("or%d", k), gate.Or, []*module.Connector{t1, t2}, cout),
				)
				carry = cout
			}
			outBits[width] = carry
			ow := module.NewWordConnector("ow", width+1)
			join := module.NewBitsToWord("join", width+1, outBits, ow)
			po := module.NewPrimaryOutput("po", width+1, ow)
			circuit.Add(join, po)
			s := module.NewSimulation(circuit)
			if st := s.Start(nil); st.Err != nil {
				b.Fatal(st.Err)
			}
		}
	})
}

// BenchmarkAblationBridgeIteration measures the cost of the bounded
// wired-AND resolution versus plain stuck-at evaluation.
func BenchmarkAblationBridgeIteration(b *testing.B) {
	nl := gate.ArrayMultiplier(8)
	in := nl.InputWord(0xBEEF)
	b.Run("stuck-at", func(b *testing.B) {
		ev, _ := nl.NewEvaluator()
		ev.SetFault(gate.Fault{Net: 20, Stuck: signal.B0})
		for i := 0; i < b.N; i++ {
			if _, err := ev.Eval(in); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("bridge", func(b *testing.B) {
		ev, _ := nl.NewEvaluator()
		ev.SetBridge(gate.Bridge{A: 20, B: 21})
		for i := 0; i < b.N; i++ {
			if _, err := ev.Eval(in); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkScanFaultSim measures full-scan sequential fault simulation of
// the counter workload.
func BenchmarkScanFaultSim(b *testing.B) {
	seq, err := gate.SequentialCounter(6)
	if err != nil {
		b.Fatal(err)
	}
	patterns := fault.RandomScanPatterns(seq, 32, 9)
	for i := 0; i < b.N; i++ {
		if _, err := fault.ScanSimulate(seq, patterns); err != nil {
			b.Fatal(err)
		}
	}
}
