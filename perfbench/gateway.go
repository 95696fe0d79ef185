package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand/v2"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/gateway"
	"repro/internal/iplib"
	"repro/internal/provider"
	"repro/internal/rmi"
	"repro/internal/security"
	"repro/internal/signal"
)

const (
	gwWidth = 8
	gwEvals = 50
)

// gatewaySessions serves one provider through a gateway on TCP loopback
// and runs whole IP-user sessions against it.
type gatewaySessions struct {
	g       *gateway.Gateway
	addr    string
	tenants []gwTenant
	ops     [][2]uint64 // the operand pairs every session evaluates

	mu     sync.Mutex
	digest string             // output digest of the first session
	fees   map[string]float64 // client-visible fees per tenant
	bill   float64            // one session's bill

	// counters at the start of a traced phase
	base gwCounters
}

type gwTenant struct {
	name string
	key  security.Key
}

func newGatewaySessions(seed int64) (instance, error) {
	p := provider.New("bench-provider")
	if err := p.Register(provider.MultFastLowPower()); err != nil {
		return nil, err
	}
	g, err := gateway.New(p.Server, gateway.Config{})
	if err != nil {
		return nil, err
	}
	s := &gatewaySessions{g: g, fees: map[string]float64{}}
	for _, name := range []string{"alpha", "beta", "gamma"} {
		key, err := security.NewKey()
		if err != nil {
			g.Close()
			return nil, err
		}
		if err := g.AddTenant(gateway.TenantSpec{Name: name, Key: hex.EncodeToString(key)}); err != nil {
			g.Close()
			return nil, err
		}
		s.tenants = append(s.tenants, gwTenant{name: name, key: key})
	}
	if s.addr, err = g.Listen("127.0.0.1:0"); err != nil {
		g.Close()
		return nil, err
	}
	r := rand.New(rand.NewPCG(uint64(seed), 0x6a7e))
	for i := 0; i < gwEvals; i++ {
		s.ops = append(s.ops, [2]uint64{r.Uint64N(1 << gwWidth), r.Uint64N(1 << gwWidth)})
	}
	return s, nil
}

// op is one session: dial (handshake and admission), bind, gwEvals
// Evals, Fees, close.
func (s *gatewaySessions) op(m *opMeter) error {
	t := s.tenants[m.op%len(s.tenants)]
	out := make([][]signal.Bit, 0, len(s.ops))
	in := make([]signal.Bit, 2*gwWidth)
	m.begin()
	dial := m.span("gateway.dial")
	rpc, err := rmi.Dial(s.addr, t.name, t.key)
	dial.close()
	if err != nil {
		m.end()
		return err
	}
	if m.traced() {
		tr, op, parent := m.tr, m.op, m.root.id()
		rpc.OnAttempt = func(_ string, rtt time.Duration, _ error) {
			tr.record(op, parent, "rmi.attempt", rtt)
		}
	}
	fees, err := session(iplib.NewIPClient(rpc), s.ops, in, &out)
	if cerr := rpc.Close(); err == nil {
		err = cerr
	}
	m.end()
	if err != nil {
		return err
	}
	return s.check(t.name, out, fees)
}

// session binds the multiplier, evaluates every operand pair and reads
// the bill.
func session(ip *iplib.IPClient, ops [][2]uint64, in []signal.Bit, out *[][]signal.Bit) (float64, error) {
	inst, err := ip.Bind("MultFastLowPower", gwWidth, nil)
	if err != nil {
		return 0, err
	}
	for _, ab := range ops {
		for j := 0; j < gwWidth; j++ {
			in[j] = signal.Bit(ab[0] >> j & 1)
			in[gwWidth+j] = signal.Bit(ab[1] >> j & 1)
		}
		o, err := inst.Eval(in)
		if err != nil {
			return 0, err
		}
		*out = append(*out, o)
	}
	return ip.Fees()
}

// check verifies one session: every product is right, the outputs
// digest like every other session's, and the bill matches.
func (s *gatewaySessions) check(tenant string, out [][]signal.Bit, fees float64) error {
	if len(out) != len(s.ops) {
		return fmt.Errorf("%d outputs for %d evals", len(out), len(s.ops))
	}
	h := sha256.New()
	for i, o := range out {
		var v uint64
		for j, bit := range o {
			h.Write([]byte{byte(bit)})
			on, known := bit.Bool()
			if !known {
				return fmt.Errorf("eval %d: output bit %d unknown", i, j)
			}
			if on {
				v |= 1 << j
			}
		}
		if a, b := s.ops[i][0], s.ops[i][1]; v != a*b {
			return fmt.Errorf("eval %d: %d*%d returned %d", i, a, b, v)
		}
	}
	d := hex.EncodeToString(h.Sum(nil))
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.digest == "" {
		s.digest, s.bill = d, fees
	}
	s.fees[tenant] += fees
	if d != s.digest {
		return fmt.Errorf("output digest %s differs from the first session's %s", d, s.digest)
	}
	if !feesMatch(fees, s.bill) {
		return fmt.Errorf("session billed %v cents, the first session %v", fees, s.bill)
	}
	return nil
}

// finish reconciles the billing ledger with the fees clients saw, once
// every session has closed on the server side.
func (s *gatewaySessions) finish() error {
	deadline := time.Now().Add(5 * time.Second)
	for {
		active := 0
		for _, mt := range s.g.Meters() {
			active += mt.ActiveConns
		}
		if active == 0 {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%d sessions still open on the gateway", active)
		}
		time.Sleep(5 * time.Millisecond)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, t := range s.tenants {
		if got, want := s.g.Ledger().Sum(t.name), s.fees[t.name]; !feesMatch(got, want) {
			return fmt.Errorf("tenant %s: ledger %v cents, clients saw %v", t.name, got, want)
		}
		mt, _ := s.g.MeterFor(t.name)
		if !feesMatch(mt.FeeCents, s.fees[t.name]) {
			return fmt.Errorf("tenant %s: meter %v cents, clients saw %v", t.name, mt.FeeCents, s.fees[t.name])
		}
	}
	return nil
}

func (s *gatewaySessions) close() error { return s.g.Close() }

// gwCounters are the gateway counters a traced phase reports as deltas.
type gwCounters struct {
	calls, rejections, latSum, latCount float64
	ledger                              int64
}

func (s *gatewaySessions) counters() gwCounters {
	var buf bytes.Buffer
	if err := s.g.WriteMetrics(&buf); err != nil {
		return gwCounters{}
	}
	body := buf.String()
	return gwCounters{
		calls:      metricSum(body, "gocad_gateway_calls_total"),
		rejections: metricSum(body, "gocad_gateway_rejections_total"),
		latSum:     metricSum(body, "gocad_gateway_frame_latency_seconds_sum"),
		latCount:   metricSum(body, "gocad_gateway_frame_latency_seconds_count"),
		ledger:     s.g.Ledger().Entries(),
	}
}

func (s *gatewaySessions) phaseStart() { s.base = s.counters() }

func (s *gatewaySessions) phaseEnd(tr *tracer) {
	now := s.counters()
	tr.attr(probeOp, "gateway.calls", now.calls-s.base.calls)
	tr.attr(probeOp, "gateway.rejections", now.rejections-s.base.rejections)
	tr.attr(probeOp, "gateway.latency_sum_s", now.latSum-s.base.latSum)
	tr.attr(probeOp, "gateway.latency_count", now.latCount-s.base.latCount)
	tr.attr(probeOp, "gateway.ledger_entries", float64(now.ledger-s.base.ledger))
}

// metricSum sums every sample of one metric family in a Prometheus text
// body, over all label sets.
func metricSum(body, name string) float64 {
	var sum float64
	for _, line := range strings.Split(body, "\n") {
		rest, ok := strings.CutPrefix(line, name)
		if !ok || rest == "" || (rest[0] != ' ' && rest[0] != '{') {
			continue
		}
		fields := strings.Fields(line)
		if v, err := strconv.ParseFloat(fields[len(fields)-1], 64); err == nil {
			sum += v
		}
	}
	return sum
}
