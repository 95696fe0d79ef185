// Package provider implements the JavaCAD server of the paper's Figure 1:
// the IP provider's side of the client-server architecture. A Provider
// hosts the PRIVATE PARTS of its components — gate-level netlists and the
// accurate estimators that need them (the PPP power simulator, static
// area/delay analysis, fault lists and detection tables) — and serves
// them to authenticated IP users over internal/rmi, metering fees per
// use. The netlists themselves never leave the process: every response is
// vetted by the marshalling policy and carries only port-value data.
package provider

import (
	"fmt"
	"strconv"
	"sync"

	"repro/internal/estim"
	"repro/internal/fault"
	"repro/internal/gate"
	"repro/internal/iplib"
	"repro/internal/ppp"
	"repro/internal/rmi"
	"repro/internal/security"
	"repro/internal/signal"
)

// Component couples a catalogue spec with the private implementation
// generator. Build runs at bind time with the negotiated width.
type Component struct {
	Spec iplib.ComponentSpec
	// Build generates the private gate-level implementation.
	Build func(width int) (*gate.Netlist, error)
	// PowerFeeCents is charged per pattern of remote power estimation
	// (Table 1: 0.1 cents per pattern for the gate-level estimator).
	PowerFeeCents float64
	// EvalFeeCents is charged per remote functional evaluation.
	EvalFeeCents float64
	// TableFeeCents is charged per detection-table query.
	TableFeeCents float64
	// TestSetFeeCents is charged per purchased test sequence.
	TestSetFeeCents float64
	// TimingFeeCents is charged per pattern of remote timing analysis.
	TimingFeeCents float64
}

// instance is the per-session state of one bound component.
type instance struct {
	mu     sync.Mutex
	comp   *Component
	width  int
	nl     *gate.Netlist
	ev     *gate.Evaluator
	power  *ppp.Simulator
	timing *ppp.TimingSimulator
	test   *fault.LocalTestability
	lib    *ppp.Library
}

// Provider is one IP provider server.
type Provider struct {
	// Server is the underlying RPC endpoint (exposed for Authorize,
	// Listen, Close).
	Server *rmi.Server
	// Library is the cell library used for power/area/delay; nil selects
	// ppp.DefaultLibrary.
	Library *ppp.Library
	// FaultNaming selects how symbolic fault names are spelled.
	FaultNaming fault.Naming

	mu         sync.Mutex
	components map[string]*Component
	// nlCache is the provider's bind-shape cache: the canonical gate-level
	// netlist per (component, width). Component.Build derives the netlist
	// deterministically from the width and every consumer — evaluators,
	// power/timing simulators, testability, ATPG — treats a built netlist
	// as read-only, so all sessions binding the same shape share one
	// instance. Netlists are pre-levelized (Netlist.Build) before they are
	// published, which also makes the shape's fault-path and topological
	// analyses cacheable by netlist pointer identity (testabilityCache
	// here, topoOrder's memo in internal/ppp).
	nlCache map[shapeKey]*gate.Netlist
}

// shapeKey identifies one bind shape.
type shapeKey struct {
	component string
	width     int
}

// testabilityCache memoizes testability services process-wide, keyed by
// the canonical netlist's pointer identity plus the fault naming scheme.
// Fault collapsing and symbolic naming walk every net of the netlist
// (the ~2k-allocation fault-path construction this cache amortizes), so
// the service builds once per shape and is shared across sessions,
// connects, and providers; its pattern-keyed detection-table cache is
// shared along with it. LocalTestability is internally synchronized.
// Pointer keying is sound because nlCache and the catalogue's canonical
// netlists hand out one stable *gate.Netlist per shape; the cache is
// bounded by the number of distinct shapes built in the process.
var testabilityCache sync.Map // testKey → *fault.LocalTestability

// testKey identifies one shared testability service.
type testKey struct {
	nl     *gate.Netlist
	naming fault.Naming
}

// DefaultSessionWorkers is the per-session dispatch concurrency a fresh
// provider allows: enough that a pipelined client's stateless calls
// (detection tables, static metrics, eval) overlap, bounded so one
// session cannot monopolize the provider host.
const DefaultSessionWorkers = 4

// New returns a provider server with the full protocol installed.
// Per-session dispatch is concurrent (DefaultSessionWorkers deep) for
// stateless methods; the power and timing batch methods drive stateful
// per-instance simulators whose values depend on pattern history, so
// they are registered ordered — they execute in request arrival order
// even when the client pipelines, keeping results bit-identical to a
// stop-and-wait transport.
func New(name string) *Provider {
	p := &Provider{
		Server:     rmi.NewServer(name),
		components: make(map[string]*Component),
	}
	p.Server.SessionWorkers = DefaultSessionWorkers
	p.Server.Handle(iplib.MethodCatalogue, p.handleCatalogue)
	p.Server.Handle(iplib.MethodBind, p.handleBind)
	p.Server.Handle(iplib.MethodEval, p.handleEval)
	p.Server.HandleOrdered(iplib.MethodPowerBatch, p.handlePowerBatch)
	p.Server.Handle(iplib.MethodStatic, p.handleStatic)
	p.Server.Handle(iplib.MethodFaultList, p.handleFaultList)
	p.Server.Handle(iplib.MethodFaultTable, p.handleFaultTable)
	p.Server.Handle(iplib.MethodFees, p.handleFees)
	p.Server.Handle(iplib.MethodNegotiate, p.handleNegotiate)
	p.Server.Handle(iplib.MethodTestSet, p.handleTestSet)
	p.Server.HandleOrdered(iplib.MethodTimingBatch, p.handleTimingBatch)
	return p
}

// handleTestSet generates and sells a compacted component test sequence.
func (p *Provider) handleTestSet(sess *rmi.Session, payload []byte) (rmi.Envelope, error) {
	var req iplib.TestSetReq
	if err := rmi.Decode(payload, &req); err != nil {
		return nil, err
	}
	inst, err := getInstance(sess, req.Instance)
	if err != nil {
		return nil, err
	}
	if !inst.comp.Spec.Testability {
		return nil, fmt.Errorf("provider: %s offers no test sets", inst.comp.Spec.Name)
	}
	max := req.MaxCandidates
	if max <= 0 || max > 100_000 {
		max = 2000
	}
	inst.mu.Lock()
	defer inst.mu.Unlock()
	ts, err := fault.GenerateTests(inst.nl, max, req.Seed)
	if err != nil {
		return nil, err
	}
	fee := inst.comp.TestSetFeeCents
	sess.Charge(fee)
	return iplib.TestSetResp{Patterns: ts.Patterns, Coverage: ts.Coverage, FeeCents: fee}, nil
}

// handleNegotiate answers a negotiation round: for each constraint, the
// most accurate offered estimator that satisfies the client's bounds.
func (p *Provider) handleNegotiate(sess *rmi.Session, payload []byte) (rmi.Envelope, error) {
	var req iplib.NegotiateReq
	if err := rmi.Decode(payload, &req); err != nil {
		return nil, err
	}
	p.mu.Lock()
	comp, ok := p.components[req.Component]
	p.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("provider: unknown component %q", req.Component)
	}
	resp := iplib.NegotiateResp{
		Offers:     make([]iplib.EstimatorOffer, len(req.Constraints)),
		Rejections: make([]string, len(req.Constraints)),
	}
	for i, c := range req.Constraints {
		var best *iplib.EstimatorOffer
		for j := range comp.Spec.Estimators {
			o := &comp.Spec.Estimators[j]
			if o.Param != c.Param {
				continue
			}
			if c.MaxErrPct > 0 && o.ErrPct > c.MaxErrPct {
				continue
			}
			if c.MaxCostCents < 0 && o.CostCents > 0 {
				continue
			}
			if c.MaxCostCents > 0 && o.CostCents > c.MaxCostCents {
				continue
			}
			if c.ForbidRemote && o.Remote {
				continue
			}
			if best == nil || o.ErrPct < best.ErrPct {
				best = o
			}
		}
		if best == nil {
			resp.Rejections[i] = fmt.Sprintf("no %s model within err<=%.1f%% cost<=%.2f remote-ok=%v",
				c.Param, c.MaxErrPct, c.MaxCostCents, !c.ForbidRemote)
			continue
		}
		resp.Offers[i] = *best
	}
	return resp, nil
}

// Register adds a component to the catalogue.
func (p *Provider) Register(c *Component) error {
	if err := c.Spec.Validate(); err != nil {
		return err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, dup := p.components[c.Spec.Name]; dup {
		return fmt.Errorf("provider: duplicate component %q", c.Spec.Name)
	}
	p.components[c.Spec.Name] = c
	return nil
}

// Authorize grants a client access (delegates to the RPC server).
func (p *Provider) Authorize(client string, key security.Key) { p.Server.Authorize(client, key) }

// Listen starts serving on a TCP address.
func (p *Provider) Listen(addr string) (string, error) { return p.Server.Listen(addr) }

// Close stops the server.
func (p *Provider) Close() error { return p.Server.Close() }

func (p *Provider) handleCatalogue(sess *rmi.Session, payload []byte) (rmi.Envelope, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	resp := iplib.CatalogueResp{}
	for _, c := range p.components {
		resp.Specs = append(resp.Specs, c.Spec)
	}
	return resp, nil
}

// instKeys precomputes the session-store names of the first instance
// handles: handles are small session-local ordinals and the key is
// rebuilt on every eval, so formatting one per call was pure overhead.
var instKeys = func() (ks [64]string) {
	for i := range ks {
		ks[i] = "inst:" + strconv.FormatUint(uint64(i), 10)
	}
	return
}()

// instKey names an instance in the session store.
func instKey(id uint64) string {
	if id < uint64(len(instKeys)) {
		return instKeys[id]
	}
	return "inst:" + strconv.FormatUint(id, 10)
}

func (p *Provider) handleBind(sess *rmi.Session, payload []byte) (rmi.Envelope, error) {
	var req iplib.BindReq
	if err := rmi.Decode(payload, &req); err != nil {
		return nil, err
	}
	p.mu.Lock()
	comp, ok := p.components[req.Component]
	p.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("provider: unknown component %q", req.Component)
	}
	if req.Width < comp.Spec.MinWidth || req.Width > comp.Spec.MaxWidth {
		return nil, fmt.Errorf("provider: %s: width %d outside [%d, %d]",
			req.Component, req.Width, comp.Spec.MinWidth, comp.Spec.MaxWidth)
	}
	nl, err := p.netlistFor(comp, req.Component, req.Width)
	if err != nil {
		return nil, err
	}
	lib := p.Library
	if lib == nil {
		lib = ppp.DefaultLibrary()
	}
	ev, err := nl.NewEvaluator()
	if err != nil {
		return nil, err
	}
	power, err := ppp.NewSimulator(nl, lib)
	if err != nil {
		return nil, err
	}
	timing, err := ppp.NewTimingSimulator(nl, lib)
	if err != nil {
		return nil, err
	}
	inst := &instance{comp: comp, width: req.Width, nl: nl, ev: ev, power: power, timing: timing, lib: lib}
	if comp.Spec.Testability {
		test, err := p.testabilityFor(nl)
		if err != nil {
			return nil, err
		}
		inst.test = test
	}
	// Negotiate the enabled models.
	enabled := comp.Spec.Estimators
	if len(req.Models) > 0 {
		enabled = nil
		for _, m := range req.Models {
			offer, ok := comp.Spec.Offer(m)
			if !ok {
				return nil, fmt.Errorf("provider: %s offers no model %q", req.Component, m)
			}
			enabled = append(enabled, offer)
		}
	}
	id := nextInstanceID(sess)
	sess.Put(instKey(id), inst)
	sess.Charge(comp.Spec.LicenseCents)
	return iplib.BindResp{Instance: id, LicenseCents: comp.Spec.LicenseCents, Enabled: enabled}, nil
}

// netlistFor returns the canonical netlist for one bind shape, building
// and pre-levelizing it on first use. Pre-levelizing under no lock but
// before publication matters: Netlist.Build memoizes into the netlist
// itself and is not safe to race, so the cache only ever hands out
// netlists that are already read-only. Concurrent first binds may build
// twice; the first insert wins so later binds converge on one instance.
func (p *Provider) netlistFor(comp *Component, component string, width int) (*gate.Netlist, error) {
	key := shapeKey{component: component, width: width}
	p.mu.Lock()
	if nl, ok := p.nlCache[key]; ok {
		p.mu.Unlock()
		return nl, nil
	}
	p.mu.Unlock()
	nl, err := comp.Build(width)
	if err != nil {
		return nil, err
	}
	if err := nl.Build(); err != nil {
		return nil, err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if cached, ok := p.nlCache[key]; ok {
		return cached, nil
	}
	if p.nlCache == nil {
		p.nlCache = make(map[shapeKey]*gate.Netlist)
	}
	p.nlCache[key] = nl
	return nl, nil
}

// testabilityFor returns the shared testability service for one
// canonical netlist, building it on first use (see testabilityCache).
// Concurrent first binds may build twice; LoadOrStore keeps the first
// insert so later binds converge on one instance.
func (p *Provider) testabilityFor(nl *gate.Netlist) (*fault.LocalTestability, error) {
	key := testKey{nl: nl, naming: p.FaultNaming}
	if t, ok := testabilityCache.Load(key); ok {
		return t.(*fault.LocalTestability), nil
	}
	test, err := fault.NewLocalTestability(nl, p.FaultNaming, true)
	if err != nil {
		return nil, err
	}
	t, _ := testabilityCache.LoadOrStore(key, test)
	return t.(*fault.LocalTestability), nil
}

// nextInstanceID allocates a session-unique instance handle.
func nextInstanceID(sess *rmi.Session) uint64 {
	v, _ := sess.Get("nextInstance")
	id, _ := v.(uint64)
	id++
	sess.Put("nextInstance", id)
	return id
}

// getInstance resolves an instance handle.
func getInstance(sess *rmi.Session, id uint64) (*instance, error) {
	v, ok := sess.Get(instKey(id))
	if !ok {
		return nil, fmt.Errorf("provider: no instance %d in session", id)
	}
	return v.(*instance), nil
}

func (p *Provider) handleEval(sess *rmi.Session, payload []byte) (rmi.Envelope, error) {
	var req iplib.EvalReq
	if err := rmi.Decode(payload, &req); err != nil {
		return nil, err
	}
	inst, err := getInstance(sess, req.Instance)
	if err != nil {
		return nil, err
	}
	inst.mu.Lock()
	defer inst.mu.Unlock()
	out, err := inst.ev.Eval(req.Inputs)
	if err != nil {
		return nil, err
	}
	sess.Charge(inst.comp.EvalFeeCents)
	return iplib.EvalResp{Outputs: append([]signal.Bit(nil), out...)}, nil
}

func (p *Provider) handlePowerBatch(sess *rmi.Session, payload []byte) (rmi.Envelope, error) {
	var req iplib.PowerBatchReq
	if err := rmi.Decode(payload, &req); err != nil {
		return nil, err
	}
	inst, err := getInstance(sess, req.Instance)
	if err != nil {
		return nil, err
	}
	fee := inst.comp.PowerFeeCents * float64(len(req.Patterns))
	sess.Charge(fee)
	if req.SkipCompute {
		// Figure 3 methodology: acknowledge the buffer without invoking
		// the power simulator, isolating RMI overhead.
		return iplib.PowerBatchResp{FeeCents: fee}, nil
	}
	inst.mu.Lock()
	defer inst.mu.Unlock()
	out := make([]float64, 0, len(req.Patterns))
	for _, pat := range req.Patterns {
		energy, err := inst.power.Step(pat)
		if err != nil {
			return nil, err
		}
		out = append(out, energy/inst.lib.CycleTime)
	}
	return iplib.PowerBatchResp{PowerPerPattern: out, FeeCents: fee}, nil
}

func (p *Provider) handleTimingBatch(sess *rmi.Session, payload []byte) (rmi.Envelope, error) {
	var req iplib.TimingBatchReq
	if err := rmi.Decode(payload, &req); err != nil {
		return nil, err
	}
	inst, err := getInstance(sess, req.Instance)
	if err != nil {
		return nil, err
	}
	fee := inst.comp.TimingFeeCents * float64(len(req.Patterns))
	sess.Charge(fee)
	inst.mu.Lock()
	defer inst.mu.Unlock()
	out := make([]float64, 0, len(req.Patterns))
	for _, pat := range req.Patterns {
		d, err := inst.timing.Step(pat)
		if err != nil {
			return nil, err
		}
		out = append(out, d)
	}
	return iplib.TimingBatchResp{DelayPerPattern: out, FeeCents: fee}, nil
}

func (p *Provider) handleStatic(sess *rmi.Session, payload []byte) (rmi.Envelope, error) {
	var req iplib.StaticReq
	if err := rmi.Decode(payload, &req); err != nil {
		return nil, err
	}
	inst, err := getInstance(sess, req.Instance)
	if err != nil {
		return nil, err
	}
	inst.mu.Lock()
	defer inst.mu.Unlock()
	switch estim.Parameter(req.Param) {
	case estim.ParamArea:
		return iplib.StaticResp{Value: ppp.AreaOf(inst.nl, inst.lib)}, nil
	case estim.ParamDelay:
		d, err := ppp.CriticalPath(inst.nl, inst.lib)
		if err != nil {
			return nil, err
		}
		return iplib.StaticResp{Value: d}, nil
	}
	return nil, fmt.Errorf("provider: unknown static parameter %q", req.Param)
}

func (p *Provider) handleFaultList(sess *rmi.Session, payload []byte) (rmi.Envelope, error) {
	var req iplib.FaultListReq
	if err := rmi.Decode(payload, &req); err != nil {
		return nil, err
	}
	inst, err := getInstance(sess, req.Instance)
	if err != nil {
		return nil, err
	}
	if inst.test == nil {
		return nil, fmt.Errorf("provider: %s offers no testability service", inst.comp.Spec.Name)
	}
	names, err := inst.test.FaultList()
	if err != nil {
		return nil, err
	}
	return iplib.FaultListResp{Names: names}, nil
}

func (p *Provider) handleFaultTable(sess *rmi.Session, payload []byte) (rmi.Envelope, error) {
	var req iplib.FaultTableReq
	if err := rmi.Decode(payload, &req); err != nil {
		return nil, err
	}
	inst, err := getInstance(sess, req.Instance)
	if err != nil {
		return nil, err
	}
	if inst.test == nil {
		return nil, fmt.Errorf("provider: %s offers no testability service", inst.comp.Spec.Name)
	}
	inst.mu.Lock()
	defer inst.mu.Unlock()
	dt, err := inst.test.DetectionTable(req.Inputs)
	if err != nil {
		return nil, err
	}
	sess.Charge(inst.comp.TableFeeCents)
	return iplib.FaultTableResp{Table: *dt}, nil
}

func (p *Provider) handleFees(sess *rmi.Session, payload []byte) (rmi.Envelope, error) {
	return iplib.FeesResp{TotalCents: sess.Fees()}, nil
}
