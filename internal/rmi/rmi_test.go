package rmi

import (
	"bytes"
	"encoding/gob"
	"errors"
	"math"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/security"
	"repro/internal/signal"
	"repro/internal/wire"
)

// echoReq and echoResp are simple test envelopes.
type echoReq struct {
	Bits []signal.Bit
	Note string
}

func (r echoReq) PortData() []any { return []any{r.Bits, r.Note} }

func (r echoReq) AppendTo(b []byte) []byte {
	b = wire.AppendBits(b, r.Bits)
	return wire.AppendString(b, r.Note)
}

func (r *echoReq) DecodeFrom(buf []byte) error {
	var err error
	*r = echoReq{}
	if r.Bits, buf, err = wire.Bits(buf); err != nil {
		return err
	}
	if r.Note, buf, err = wire.String(buf); err != nil {
		return err
	}
	if len(buf) != 0 {
		return errors.New("trailing bytes after echoReq")
	}
	return nil
}

type echoResp struct {
	Bits  []signal.Bit
	Calls int
}

func (r echoResp) PortData() []any { return []any{r.Bits, r.Calls} }

func (r echoResp) AppendTo(b []byte) []byte {
	b = wire.AppendBits(b, r.Bits)
	return wire.AppendVarint(b, int64(r.Calls))
}

func (r *echoResp) DecodeFrom(buf []byte) error {
	var err error
	*r = echoResp{}
	if r.Bits, buf, err = wire.Bits(buf); err != nil {
		return err
	}
	var calls int64
	if calls, buf, err = wire.Varint(buf); err != nil {
		return err
	}
	r.Calls = int(calls)
	if len(buf) != 0 {
		return errors.New("trailing bytes after echoResp")
	}
	return nil
}

// leakResp declares design data (a map) as port data, which the
// marshalling policy must refuse before the codec ever runs. Its codec
// exists only so the type can be a response envelope at all.
type leakResp struct {
	Secret map[string]int
}

func (r leakResp) PortData() []any { return []any{r.Secret} }

func (r leakResp) AppendTo(b []byte) []byte {
	b = wire.AppendUvarint(b, uint64(len(r.Secret)))
	for k, v := range r.Secret {
		b = wire.AppendString(b, k)
		b = wire.AppendVarint(b, int64(v))
	}
	return b
}

func (r *leakResp) DecodeFrom(buf []byte) error {
	n, buf, err := wire.Uvarint(buf)
	if err != nil {
		return err
	}
	if n > uint64(len(buf)) {
		return errors.New("leakResp: entry count exceeds input")
	}
	r.Secret = make(map[string]int, n)
	for i := uint64(0); i < n; i++ {
		var k string
		var v int64
		if k, buf, err = wire.String(buf); err != nil {
			return err
		}
		if v, buf, err = wire.Varint(buf); err != nil {
			return err
		}
		r.Secret[k] = int(v)
	}
	if len(buf) != 0 {
		return errors.New("trailing bytes after leakResp")
	}
	return nil
}

// newTestPair starts a server with an echo method and returns a
// connected, authenticated client.
func newTestPair(t *testing.T, configure func(*Server)) (*Server, *Client) {
	t.Helper()
	srv := NewServer("prov")
	key, err := security.NewKey()
	if err != nil {
		t.Fatal(err)
	}
	srv.Authorize("user", key)
	calls := 0
	srv.Handle("echo", func(sess *Session, payload []byte) (Envelope, error) {
		var req echoReq
		if err := Decode(payload, &req); err != nil {
			return nil, err
		}
		calls++
		sess.Charge(0.1)
		return echoResp{Bits: req.Bits, Calls: calls}, nil
	})
	srv.Handle("leak", func(sess *Session, payload []byte) (Envelope, error) {
		return leakResp{Secret: map[string]int{"netlist": 1}}, nil
	})
	srv.Handle("boom", func(sess *Session, payload []byte) (Envelope, error) {
		panic("handler exploded")
	})
	if configure != nil {
		configure(srv)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	cli, err := Dial(addr, "user", key)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cli.Close() })
	return srv, cli
}

func TestCallRoundTrip(t *testing.T) {
	_, cli := newTestPair(t, nil)
	req := echoReq{Bits: []signal.Bit{signal.B1, signal.B0}, Note: "hi"}
	var resp echoResp
	if err := cli.Call("echo", req, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Bits) != 2 || resp.Bits[0] != signal.B1 {
		t.Errorf("echo payload wrong: %+v", resp)
	}
	if resp.Calls != 1 {
		t.Errorf("server call count = %d", resp.Calls)
	}
}

func TestSessionEstablishedAndBilled(t *testing.T) {
	srv, cli := newTestPair(t, nil)
	if cli.Session() == "" {
		t.Fatal("no session id")
	}
	var resp echoResp
	for i := 0; i < 3; i++ {
		if err := cli.Call("echo", echoReq{}, &resp); err != nil {
			t.Fatal(err)
		}
	}
	sessions := srv.Sessions()
	if len(sessions) != 1 {
		t.Fatalf("sessions = %d", len(sessions))
	}
	if fees := sessions[0].Fees(); fees < 0.299 || fees > 0.301 {
		t.Errorf("fees = %v, want 0.3", fees)
	}
	if sessions[0].Client != "user" {
		t.Errorf("session client = %q", sessions[0].Client)
	}
}

// TestSessionFeesOrderIndependent: a bill is an exact integer count of
// fee units, so the same charges give the same bits in any order —
// float64 addition would give 0.6000000000000001 one way and 0.6 the
// other — and under concurrent charging.
func TestSessionFeesOrderIndependent(t *testing.T) {
	charges := []float64{0.1, 0.2, 0.3, 0.0125, 1e-9}
	var fwd, rev, conc Session
	for i := range charges {
		fwd.Charge(charges[i])
		rev.Charge(charges[len(charges)-1-i])
	}
	var wg sync.WaitGroup
	for _, c := range charges {
		wg.Add(1)
		go func() {
			defer wg.Done()
			conc.Charge(c)
		}()
	}
	wg.Wait()
	want := 0.612500001
	for name, s := range map[string]*Session{"forward": &fwd, "reverse": &rev, "concurrent": &conc} {
		if got := s.Fees(); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%s: fees %v (%#x), want %v", name, got, math.Float64bits(got), want)
		}
	}
}

func TestAuthenticationRejectsWrongKey(t *testing.T) {
	srv := NewServer("prov")
	key, _ := security.NewKey()
	srv.Authorize("user", key)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	wrong, _ := security.NewKey()
	if _, err := Dial(addr, "user", wrong); err == nil {
		t.Fatal("wrong key accepted")
	}
	if _, err := Dial(addr, "stranger", key); err == nil {
		t.Fatal("unknown client accepted")
	}
	if _, err := Dial(addr, "user", key); err != nil {
		t.Fatalf("valid client rejected: %v", err)
	}
}

func TestUnknownMethod(t *testing.T) {
	_, cli := newTestPair(t, nil)
	var resp echoResp
	err := cli.Call("nope", echoReq{}, &resp)
	var re *RemoteError
	if err == nil || !strings.Contains(err.Error(), "unknown method") {
		t.Fatalf("err = %v", err)
	}
	if !asRemote(err, &re) {
		t.Fatal("not a RemoteError")
	}
}

func asRemote(err error, target **RemoteError) bool {
	re, ok := err.(*RemoteError)
	if ok {
		*target = re
	}
	return ok
}

func TestHandlerPanicIsolated(t *testing.T) {
	_, cli := newTestPair(t, nil)
	var resp echoResp
	err := cli.Call("boom", echoReq{}, &resp)
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("panic not surfaced: %v", err)
	}
	// The connection must survive a handler panic.
	if err := cli.Call("echo", echoReq{}, &resp); err != nil {
		t.Fatalf("connection dead after panic: %v", err)
	}
}

func TestMarshalPolicyBlocksOutboundRequest(t *testing.T) {
	_, cli := newTestPair(t, nil)
	// An envelope whose port data includes a disallowed type.
	bad := echoReqWithSecret{}
	var resp echoResp
	err := cli.Call("echo", bad, &resp)
	if err == nil || !strings.Contains(err.Error(), "IP boundary") {
		t.Fatalf("policy did not block outbound request: %v", err)
	}
}

type echoReqWithSecret struct{ Bits []signal.Bit }

func (r echoReqWithSecret) PortData() []any {
	return []any{map[string]int{"design": 1}}
}

func (r echoReqWithSecret) AppendTo(b []byte) []byte { return wire.AppendBits(b, r.Bits) }

func TestMarshalPolicyBlocksOutboundResponse(t *testing.T) {
	_, cli := newTestPair(t, nil)
	var resp leakResp
	err := cli.Call("leak", echoReq{}, &resp)
	if err == nil || !strings.Contains(err.Error(), "IP boundary") {
		t.Fatalf("policy did not block outbound response: %v", err)
	}
}

func TestEmulatedDelayAndMetering(t *testing.T) {
	var meter netsim.Meter
	_, cli := newTestPair(t, nil)
	cli.Profile = netsim.Profile{Name: "slow", OneWay: 5 * time.Millisecond}
	cli.Meter = &meter
	var resp echoResp
	start := time.Now()
	if err := cli.Call("echo", echoReq{}, &resp); err != nil {
		t.Fatal(err)
	}
	wall := time.Since(start)
	if wall < 10*time.Millisecond {
		t.Errorf("call returned in %v; expected ≥ 10ms injected delay", wall)
	}
	if meter.Blocked() < 10*time.Millisecond {
		t.Errorf("metered blocked = %v", meter.Blocked())
	}
	if meter.Calls() != 1 || meter.Bytes() == 0 {
		t.Errorf("meter calls=%d bytes=%d", meter.Calls(), meter.Bytes())
	}
}

func TestAsyncGo(t *testing.T) {
	_, cli := newTestPair(t, nil)
	var resp echoResp
	p := cli.Go("echo", echoReq{Bits: []signal.Bit{signal.B1}}, &resp)
	<-p.Done
	if p.Err() != nil {
		t.Fatal(p.Err())
	}
	if len(resp.Bits) != 1 {
		t.Error("async reply missing")
	}
}

func TestConcurrentCallsSerialized(t *testing.T) {
	_, cli := newTestPair(t, nil)
	var wg sync.WaitGroup
	errs := make([]error, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var resp echoResp
			errs[i] = cli.Call("echo", echoReq{Bits: []signal.Bit{signal.B0}}, &resp)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("call %d: %v", i, err)
		}
	}
}

func TestServeConnOverPipe(t *testing.T) {
	srv := NewServer("pipe")
	key, _ := security.NewKey()
	srv.Authorize("user", key)
	srv.Handle("echo", func(sess *Session, payload []byte) (Envelope, error) {
		var req echoReq
		if err := Decode(payload, &req); err != nil {
			return nil, err
		}
		return echoResp{Bits: req.Bits}, nil
	})
	a, b := net.Pipe()
	go srv.ServeConn(a)
	cli, err := NewClient(b, "user", key)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	var resp echoResp
	if err := cli.Call("echo", echoReq{Bits: []signal.Bit{signal.BX}}, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Bits) != 1 || resp.Bits[0] != signal.BX {
		t.Error("pipe transport broke payload")
	}
}

func TestClosedClientRejectsCalls(t *testing.T) {
	_, cli := newTestPair(t, nil)
	cli.Close()
	var resp echoResp
	if err := cli.Call("echo", echoReq{}, &resp); err == nil {
		t.Error("closed client accepted call")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	in := echoReq{Bits: []signal.Bit{signal.B0, signal.B1, signal.BZ}, Note: "n"}
	b := EncodePayload(in)
	if len(b) == 0 || b[0] != binPayloadTag {
		t.Fatalf("payload not tagged: % x", b)
	}
	var out echoReq
	if err := Decode(b, &out); err != nil {
		t.Fatal(err)
	}
	if out.Note != in.Note || len(out.Bits) != 3 || out.Bits[2] != signal.BZ {
		t.Errorf("round trip = %+v", out)
	}
}

// TestDecodeRejectsUntaggedPayload: a payload that does not open with
// the version-1 tag — empty, or another encoding such as a gob stream —
// is an error, never handed to DecodeFrom.
func TestDecodeRejectsUntaggedPayload(t *testing.T) {
	var gobStream bytes.Buffer
	if err := gob.NewEncoder(&gobStream).Encode(echoReq{Note: "legacy"}); err != nil {
		t.Fatal(err)
	}
	for name, b := range map[string][]byte{"empty": nil, "gob": gobStream.Bytes(), "tag-only-wrong": {0x01}} {
		var out echoReq
		if err := Decode(b, &out); err == nil || !strings.Contains(err.Error(), "wire-format-v1") {
			t.Errorf("%s payload: err = %v, want a wire-format-v1 error", name, err)
		}
	}
}

func TestDuplicateMethodPanics(t *testing.T) {
	srv := NewServer("dup")
	srv.Handle("m", func(*Session, []byte) (Envelope, error) { return nil, nil })
	defer func() {
		if recover() == nil {
			t.Error("duplicate method did not panic")
		}
	}()
	srv.Handle("m", func(*Session, []byte) (Envelope, error) { return nil, nil })
}

func TestCallTimeout(t *testing.T) {
	srv := NewServer("slow")
	key, _ := security.NewKey()
	srv.Authorize("user", key)
	block := make(chan struct{})
	srv.Handle("hang", func(sess *Session, payload []byte) (Envelope, error) {
		<-block
		return echoResp{}, nil
	})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	defer close(block)
	cli, err := Dial(addr, "user", key)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	cli.Timeout = 50 * time.Millisecond
	var resp echoResp
	start := time.Now()
	err = cli.Call("hang", echoReq{}, &resp)
	if err == nil {
		t.Fatal("hung call returned")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("timeout took %v", elapsed)
	}
	// A timed-out client is closed: further calls fail fast.
	if err := cli.Call("hang", echoReq{}, &resp); err == nil {
		t.Fatal("timed-out client accepted another call")
	}
}
