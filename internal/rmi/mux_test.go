package rmi

import (
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/leakcheck"
	"repro/internal/netsim"
	"repro/internal/signal"
)

// newPipelinePair starts an echo server with per-session concurrent
// dispatch and a handler that holds each request briefly, so pipelined
// requests genuinely overlap at the provider.
func newPipelinePair(t *testing.T, workers int, hold time.Duration) *Client {
	t.Helper()
	_, cli := newTestPair(t, func(srv *Server) {
		srv.SessionWorkers = workers
		srv.Handle("hold", func(sess *Session, payload []byte) (Envelope, error) {
			var req echoReq
			if err := Decode(payload, &req); err != nil {
				return nil, err
			}
			time.Sleep(hold)
			return echoResp{Bits: req.Bits}, nil
		})
	})
	return cli
}

// TestPipelinedCallsAtDepths drives many concurrent calls through the
// mux at several in-flight depths under -race: every response must
// correlate back to its own request, and the observed in-flight
// high-water mark must respect the configured bound (and actually
// pipeline when the bound allows it).
func TestPipelinedCallsAtDepths(t *testing.T) {
	for _, depth := range []int{1, 4, 32} {
		depth := depth
		t.Run(fmt.Sprintf("depth=%d", depth), func(t *testing.T) {
			leakcheck.Check(t) // the mux pumps must all unwind on close
			cli := newPipelinePair(t, 8, 10*time.Millisecond)
			cli.MaxInFlight = depth
			const calls = 32
			var wg sync.WaitGroup
			errs := make([]error, calls)
			got := make([]echoResp, calls)
			for i := 0; i < calls; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					req := echoReq{Bits: []signal.Bit{signal.Bit(i % 3)}, Note: fmt.Sprint(i)}
					errs[i] = cli.Call("hold", req, &got[i])
				}(i)
			}
			wg.Wait()
			for i := 0; i < calls; i++ {
				if errs[i] != nil {
					t.Fatalf("call %d: %v", i, errs[i])
				}
				if len(got[i].Bits) != 1 || got[i].Bits[0] != signal.Bit(i%3) {
					t.Errorf("call %d: response %v correlated to the wrong request", i, got[i].Bits)
				}
			}
			peak := cli.PeakInFlight()
			if peak > depth {
				t.Errorf("peak in-flight %d exceeds configured depth %d", peak, depth)
			}
			if depth == 1 && peak != 1 {
				t.Errorf("peak in-flight %d at depth 1; want exactly 1 (stop-and-wait)", peak)
			}
			if depth > 1 && peak < 2 {
				t.Errorf("peak in-flight %d at depth %d; calls never pipelined", peak, depth)
			}
		})
	}
}

// TestPipelineCorrelatesOutOfOrderResponses makes the provider complete
// a later request before an earlier one (concurrent session workers, the
// first request held much longer): the reader must hand each caller its
// own payload via ID correlation, not wire order.
func TestPipelineCorrelatesOutOfOrderResponses(t *testing.T) {
	_, cli := newTestPair(t, func(srv *Server) {
		srv.SessionWorkers = 4
		srv.Handle("vardelay", func(sess *Session, payload []byte) (Envelope, error) {
			var req echoReq
			if err := Decode(payload, &req); err != nil {
				return nil, err
			}
			if req.Note == "slow" {
				time.Sleep(80 * time.Millisecond)
			}
			return echoResp{Bits: req.Bits}, nil
		})
	})
	cli.MaxInFlight = 8

	var slowResp echoResp
	slow := cli.Go("vardelay", echoReq{Bits: []signal.Bit{signal.B1}, Note: "slow"}, &slowResp)
	// Give the slow request time to reach the wire first.
	time.Sleep(10 * time.Millisecond)
	var fastResp echoResp
	start := time.Now()
	if err := cli.Call("vardelay", echoReq{Bits: []signal.Bit{signal.B0}, Note: "fast"}, &fastResp); err != nil {
		t.Fatal(err)
	}
	fastDone := time.Since(start)
	<-slow.Done
	if slow.Err() != nil {
		t.Fatal(slow.Err())
	}
	if slowResp.Bits[0] != signal.B1 || fastResp.Bits[0] != signal.B0 {
		t.Errorf("responses crossed: slow=%v fast=%v", slowResp.Bits, fastResp.Bits)
	}
	if fastDone >= 70*time.Millisecond {
		t.Errorf("fast call took %v; it serialized behind the slow one instead of overtaking", fastDone)
	}
}

// rogueStaleMidPipeline reads three pipelined requests, answers the
// first correctly, then desynchronizes the stream with a bogus response
// ID while two calls are still in flight.
func rogueStaleMidPipeline(conn net.Conn, fw *binFrameWriter, fr *binFrameReader, requests *atomic.Int32) {
	var reqs []frame
	for i := 0; i < 3; i++ {
		var req frame
		if fr.readFrame(&req) != nil {
			return
		}
		requests.Add(1)
		reqs = append(reqs, req)
	}
	if fw.writeFrame(&frame{Kind: kindResponse, ID: reqs[0].ID}) != nil {
		return
	}
	_ = fw.writeFrame(&frame{Kind: kindResponse, ID: reqs[1].ID + 100000})
}

// TestUnknownResponseIDFailsAllInFlight pins the mux poison semantics: a
// response matching no pending call abandons the epoch, and EVERY call
// still in flight resolves with the desynchronization fault — none may
// hang or be handed another call's data.
func TestUnknownResponseIDFailsAllInFlight(t *testing.T) {
	r := startRogue(t, rogueStaleMidPipeline)
	cli := rogueClient(t, r)
	cli.MaxInFlight = 8
	cli.Redial = nil // surface the fault rather than healing

	pending := []*Pending{
		cli.Go("m", echoReq{Note: "0"}, nil),
		cli.Go("m", echoReq{Note: "1"}, nil),
		cli.Go("m", echoReq{Note: "2"}, nil),
	}
	deadline := time.After(5 * time.Second)
	var failed, ok int
	for i, p := range pending {
		select {
		case <-p.Done:
		case <-deadline:
			t.Fatalf("call %d hung after mid-pipeline desync", i)
		}
		if err := p.Err(); err != nil {
			if !strings.Contains(err.Error(), "desynchronized") {
				t.Errorf("call %d: err = %v, want desynchronization fault", i, err)
			}
			failed++
		} else {
			ok++
		}
	}
	// The correctly-answered first call may complete before the poison
	// lands; the two still in flight must both fail.
	if failed < 2 {
		t.Errorf("failed=%d ok=%d; the poisoned epoch let in-flight calls succeed", failed, ok)
	}
	if cli.Dead() {
		t.Error("single desync must not declare the provider dead")
	}
}

// TestMidPipelineDisconnectHealsEveryCall kills the connection by fault
// plan while a deep pipeline is in flight: every pending call fails over
// the retry/reconnect ladder and ultimately succeeds on the replacement
// connection.
func TestMidPipelineDisconnectHealsEveryCall(t *testing.T) {
	leakcheck.Check(t) // reconnect must not orphan the dead epoch's pumps
	cli, dialer, calls := newFaultServer(t, []*netsim.FaultPlan{netsim.ResetAfterWrites(9), nil})
	cli.MaxInFlight = 8
	const n = 16
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var resp echoResp
			errs[i] = cli.Call("echo", echoReq{Bits: []signal.Bit{signal.B1}}, &resp)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("call %d not healed: %v", i, err)
		}
	}
	if fired := dialer.Conn(0).Fired(); len(fired) != 1 {
		t.Fatalf("scripted mid-pipeline reset did not fire: %v", fired)
	}
	if got := cli.Reconnects(); got < 1 {
		t.Errorf("reconnects = %d, want ≥ 1", got)
	}
	if cli.Dead() {
		t.Error("client wrongly declared dead")
	}
	if calls.Load() < n {
		t.Errorf("server executed %d calls, want ≥ %d", calls.Load(), n)
	}
}

// TestCloseInterruptsBackoff is the regression for the uninterruptible
// retry sleep: a client parked in a multi-second backoff must abandon
// the wait promptly when Close is called, instead of pinning the caller
// for the full schedule.
func TestCloseInterruptsBackoff(t *testing.T) {
	srv := NewServer("prov")
	key := testKey(t)
	srv.Authorize("user", key)
	srv.Handle("echo", func(sess *Session, payload []byte) (Envelope, error) {
		return echoResp{}, nil
	})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dialer := &netsim.FaultyDialer{
		Base:  func() (net.Conn, error) { return net.Dial("tcp", addr) },
		Plans: []*netsim.FaultPlan{netsim.ResetAfterWrites(8)},
	}
	conn, err := dialer.Dial()
	if err != nil {
		t.Fatal(err)
	}
	cli, err := NewClient(conn, "user", key)
	if err != nil {
		t.Fatal(err)
	}
	cli.Redial = dialer.Dial
	cli.Retry = RetryPolicy{MaxAttempts: 5, BaseDelay: 10 * time.Second}
	// Take the listener down: the established connection keeps serving
	// until the scripted reset, after which every redial fails and the
	// retry ladder has nowhere to go but its 10-second backoff sleeps.
	srv.Close()

	done := make(chan error, 1)
	go func() {
		for {
			if err := cli.Call("echo", echoReq{}, nil); err != nil {
				done <- err
				return
			}
		}
	}()
	time.Sleep(300 * time.Millisecond) // reset fires; the failed call enters backoff
	start := time.Now()
	if err := cli.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("call succeeded against a dead provider")
		}
		if elapsed := time.Since(start); elapsed > 2*time.Second {
			t.Fatalf("Call returned %v after Close, want prompt abort of the backoff sleep", elapsed)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Call still sleeping in backoff 5s after Close")
	}
}

// TestDepthOneMatchesStopAndWaitBytes pins wire compatibility: the
// pipelined transport at depth 1 must meter exactly the same call and
// byte counts as at depth 8 for the same serial traffic, and those bytes
// must be exactly the wire-format-v1 request and response frames — no
// framing overhead unaccounted for, none double-counted.
func TestDepthOneMatchesStopAndWaitBytes(t *testing.T) {
	wide := make([]signal.Bit, 1024)
	for i := range wide {
		wide[i] = signal.Bit(i % 4)
	}
	const calls = 5
	run := func(depth int, bits []signal.Bit) (int64, int64, string) {
		var meter netsim.Meter
		_, cli := newTestPair(t, nil)
		cli.Meter = &meter
		cli.MaxInFlight = depth
		for i := 0; i < calls; i++ {
			var resp echoResp
			if err := cli.Call("echo", echoReq{Bits: bits, Note: "x"}, &resp); err != nil {
				t.Fatal(err)
			}
		}
		return meter.Calls(), meter.Bytes(), cli.Session()
	}
	for _, bits := range [][]signal.Bit{{signal.B1, signal.B0}, wide} {
		c1, b1, session := run(1, bits)
		cN, bN, _ := run(8, bits)
		if c1 != cN || b1 != bN {
			t.Errorf("%d-bit calls: depth 1 metered calls=%d bytes=%d, depth 8 calls=%d bytes=%d; wire accounting diverged",
				len(bits), c1, b1, cN, bN)
		}
		var want int64
		for i := 1; i <= calls; i++ {
			req, err := appendFrame(nil, &frame{Kind: kindRequest, ID: uint64(i), Session: session, Method: "echo",
				Payload: EncodePayload(echoReq{Bits: bits, Note: "x"})})
			if err != nil {
				t.Fatal(err)
			}
			resp, err := appendFrame(nil, &frame{Kind: kindResponse, ID: uint64(i),
				Payload: EncodePayload(echoResp{Bits: bits, Calls: i})})
			if err != nil {
				t.Fatal(err)
			}
			want += int64(len(req) + len(resp))
		}
		if b1 != want {
			t.Errorf("%d-bit calls: metered %d bytes, the frames are %d bytes", len(bits), b1, want)
		}
	}
}
