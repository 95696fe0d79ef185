package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/iplib"
	"repro/internal/netsim"
	"repro/internal/provider"
	"repro/internal/rmi"
)

// The scenario workloads run core.Run on one Table 2 / Figure 3 cell.
// Each op draws its stimulus seed from a table whose outputs were pinned
// from the program (pins.json); the workload seed fixes the order.
var scenarios = map[string]struct {
	scenario core.Scenario
	config   func() core.Config
}{
	// Table 2's MR row in-process: the paper's 16-bit, 100-pattern,
	// buffer-5 nonblocking setup with no emulated delay.
	"mr-inproc": {core.MultiplierRemote, core.DefaultConfig},
	// Figure 3's 20% point: ER over the emulated WAN, buffer 20 of 100
	// patterns, provider computation skipped.
	"er-wan": {core.EstimatorRemote, func() core.Config {
		c := core.DefaultConfig()
		c.Profile = netsim.WAN
		c.BufferSize = 20
		c.SkipCompute = true
		return c
	}},
}

// pin is the expected output of one scenario run.
type pin struct {
	Seed     int64   `json:"seed"`
	Products int     `json:"products"`
	Samples  int     `json:"samples"`
	Sent     int     `json:"sent"`
	Digest   string  `json:"power_digest"`
	Fees     float64 `json:"fees_cents"`
}

// pinSeeds are the stimulus seeds whose outputs pins.json holds.
func pinSeeds() []int64 {
	s := make([]int64, 32)
	for i := range s {
		s[i] = 1999 + int64(i)
	}
	return s
}

//go:embed pins.json
var pinsJSON []byte

var pins = func() map[string][]pin {
	var m map[string][]pin
	if err := json.Unmarshal(pinsJSON, &m); err != nil {
		panic(fmt.Sprintf("perfbench: pins.json: %v", err))
	}
	return m
}()

func pinsFor(name string) []pin { return pins[name] }

// pinOrder is the order in which a workload seed visits n pins.
func pinOrder(seed int64, n int) []int {
	return rand.New(rand.NewPCG(uint64(seed), 0x9ad1999)).Perm(n)
}

// powerDigest hashes the per-pattern power values in order.
func powerDigest(vals []float64) string {
	h := sha256.New()
	var b [8]byte
	for _, v := range vals {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// feesMatch compares fees to 1e-9 relative: the provider sums charges of
// concurrently dispatched calls in a timing-dependent order, so the last
// bits of a bill may differ between identical runs.
func feesMatch(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
}

// pinOf summarizes a run in pin form.
func pinOf(seed int64, res *core.Result) pin {
	p := pin{Seed: seed, Products: res.Products, Fees: res.FeesCents}
	var vals []float64
	if res.Power != nil {
		vals = res.Power.Samples
		p.Sent = res.Power.Sent
	}
	p.Samples = len(vals)
	p.Digest = powerDigest(vals)
	return p
}

// check compares a run against the pin.
func (p pin) check(res *core.Result) error {
	if res.Power != nil && res.Power.Degraded {
		return fmt.Errorf("seed %d: run degraded", p.Seed)
	}
	got := pinOf(p.Seed, res)
	if !feesMatch(got.Fees, p.Fees) {
		return fmt.Errorf("seed %d: fees %v cents, pinned %v", p.Seed, got.Fees, p.Fees)
	}
	got.Fees = p.Fees
	if got != p {
		return fmt.Errorf("seed %d: got %+v, pinned %+v", p.Seed, got, p)
	}
	return nil
}

// printPins runs every scenario workload on every pin seed and prints
// pins.json.
func printPins(w io.Writer) error {
	out := map[string][]pin{}
	for name, sc := range scenarios {
		for _, seed := range pinSeeds() {
			cfg := sc.config()
			cfg.Seed = seed
			res, err := core.Run(sc.scenario, cfg)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", name, seed, err)
			}
			out[name] = append(out[name], pinOf(seed, res))
		}
	}
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}

type scenarioRun struct {
	scenario core.Scenario
	cfg      core.Config
	pins     []pin
	order    []int
}

func newScenario(name string) func(seed int64) (instance, error) {
	return func(seed int64) (instance, error) {
		sc := scenarios[name]
		ps := pinsFor(name)
		if len(ps) == 0 {
			return nil, fmt.Errorf("%s: no pins", name)
		}
		return &scenarioRun{scenario: sc.scenario, cfg: sc.config(), pins: ps, order: pinOrder(seed, len(ps))}, nil
	}
}

func (s *scenarioRun) op(m *opMeter) error {
	p := s.pins[s.order[m.op%len(s.order)]]
	cfg := s.cfg
	cfg.Seed = p.Seed
	var wire wireCount
	m.begin()
	run := m.span("core.run")
	if m.traced() {
		cfg.DialVia = tracedDial(m.tr, m.op, run.id(), &wire)
	}
	res, err := core.Run(s.scenario, cfg)
	run.close()
	m.end()
	if err != nil {
		return err
	}
	if m.traced() {
		m.attr("core.sim_ms", ms(int64(res.SimTime)))
		m.attr("core.drain_ms", ms(int64(res.DrainTime)))
		m.attr("core.host_ms", ms(int64(res.CPUTime)))
		m.attr("netsim.emu_wait_ms", ms(int64(res.Blocked)))
		m.attr("rmi.calls", float64(res.Calls))
		m.attr("rmi.wire_bytes", float64(wire.bytes.Load()))
		m.attr("rmi.wire_writes", float64(wire.writes.Load()))
	}
	return p.check(res)
}

func (s *scenarioRun) finish() error { return nil }
func (s *scenarioRun) close() error  { return nil }

// wireCount counts the client side of a provider connection: bytes in
// both directions and Write calls (one per frame sent).
type wireCount struct {
	bytes  atomic.Int64
	writes atomic.Int64
}

type countingConn struct {
	net.Conn
	c *wireCount
}

func (c countingConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	c.c.bytes.Add(int64(n))
	return n, err
}

func (c countingConn) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	c.c.bytes.Add(int64(n))
	c.c.writes.Add(1)
	return n, err
}

// tracedDial is a Config.DialVia that counts the in-process pipe's
// traffic and records every provider dispatch as a span under parent.
// Installing a hook moves the server onto its hooked dispatch path, so
// only traced runs do it.
func tracedDial(tr *tracer, op int, parent int64, wc *wireCount) func(p *provider.Provider) func() (net.Conn, error) {
	return func(p *provider.Provider) func() (net.Conn, error) {
		p.Server.Hooks = &rmi.ServerHooks{
			AfterCall: func(_ *rmi.Session, method string, _ int, d time.Duration, _ bool) {
				tr.record(op, parent, providerSpan(method), d)
			},
		}
		dial := core.PipeDialer(p)
		return func() (net.Conn, error) {
			conn, err := dial()
			if err != nil {
				return nil, err
			}
			return countingConn{Conn: conn, c: wc}, nil
		}
	}
}

// providerSpan names the provider layer a method belongs to.
func providerSpan(method string) string {
	switch method {
	case iplib.MethodEval:
		return "provider.eval"
	case iplib.MethodPowerBatch:
		return "provider.power"
	}
	return "provider.session"
}
