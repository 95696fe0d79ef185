package rmi

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/leakcheck"
	"repro/internal/security"
)

// newDrainPair starts a TCP server with a "slow" handler that signals
// entry and then blocks until released (or for its sleep), plus the
// standard echo; it returns the server, a connected client, and the
// bound address for post-drain dial probes.
func newDrainPair(t *testing.T, workers int, entered chan struct{}, hold time.Duration) (*Server, *Client, string) {
	t.Helper()
	srv := NewServer("prov")
	srv.SessionWorkers = workers
	key, err := security.NewKey()
	if err != nil {
		t.Fatal(err)
	}
	srv.Authorize("user", key)
	srv.Handle("echo", func(sess *Session, payload []byte) (Envelope, error) {
		var req echoReq
		if err := Decode(payload, &req); err != nil {
			return nil, err
		}
		return echoResp{Bits: req.Bits}, nil
	})
	srv.HandleOrdered("slow", func(sess *Session, payload []byte) (Envelope, error) {
		select {
		case entered <- struct{}{}:
		default:
		}
		time.Sleep(hold)
		return echoResp{Calls: 1}, nil
	})
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
	return srv, cli, addr
}

// TestDrainFinishesInFlightBatch is the drain contract: a batch already
// executing when drain starts completes and its response reaches the
// client — the epoch is never poisoned mid-batch — while the listener
// refuses new sessions.
func TestDrainFinishesInFlightBatch(t *testing.T) {
	for _, workers := range []int{1, 4} {
		name := "serial"
		if workers > 1 {
			name = "concurrent"
		}
		t.Run(name, func(t *testing.T) {
			leakcheck.Check(t)
			entered := make(chan struct{}, 1)
			srv, cli, addr := newDrainPair(t, workers, entered, 100*time.Millisecond)

			pending := cli.Go("slow", echoReq{}, &echoResp{})
			select {
			case <-entered:
			case <-time.After(5 * time.Second):
				t.Fatal("slow handler never entered")
			}

			if err := srv.Drain(5 * time.Second); err != nil {
				t.Fatalf("drain: %v", err)
			}
			<-pending.Done
			if err := pending.Err(); err != nil {
				t.Fatalf("in-flight batch poisoned by drain: %v", err)
			}

			// The listener is down: no new sessions.
			if _, err := Dial(addr, "user", security.Key("k")); err == nil {
				t.Fatal("draining server accepted a new session")
			}
		})
	}
}

// TestDrainTimeoutForceCloses bounds the wait: a handler that outlives
// -drain-timeout is cut off, reported in Drain's error, and the caller
// sees a transport fault rather than a hang.
func TestDrainTimeoutForceCloses(t *testing.T) {
	leakcheck.Check(t)
	entered := make(chan struct{}, 1)
	srv, cli, _ := newDrainPair(t, 1, entered, 400*time.Millisecond)

	pending := cli.Go("slow", echoReq{}, &echoResp{})
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("slow handler never entered")
	}

	err := srv.Drain(20 * time.Millisecond)
	if err == nil || !strings.Contains(err.Error(), "force-closed") {
		t.Fatalf("drain err = %v, want force-closed report", err)
	}
	<-pending.Done
	if pending.Err() == nil {
		t.Fatal("force-closed connection still delivered a response")
	}
}

// TestDrainIdleServer drains instantly with no connections or only idle
// ones.
func TestDrainIdleServer(t *testing.T) {
	leakcheck.Check(t)
	entered := make(chan struct{}, 1)
	srv, cli, _ := newDrainPair(t, 1, entered, 0)
	// One completed call leaves the connection idle.
	if err := cli.Call("echo", echoReq{Note: "x"}, &echoResp{}); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := srv.Drain(5 * time.Second); err != nil {
		t.Fatalf("drain of idle server: %v", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("idle drain took %v", d)
	}
}

// TestAttemptAndEpochFailHooks pins the failover layer's two rmi seams:
// OnAttempt sees every completed wire attempt with its outcome, and
// OnEpochFail fires once per poisoned epoch — but never for the
// administrative teardown of Close.
func TestAttemptAndEpochFailHooks(t *testing.T) {
	leakcheck.Check(t)
	entered := make(chan struct{}, 1)
	_, cli, _ := newDrainPair(t, 1, entered, 300*time.Millisecond)

	var mu sync.Mutex
	var attempts []error
	var epochFails []error
	cli.OnAttempt = func(method string, rtt time.Duration, err error) {
		mu.Lock()
		defer mu.Unlock()
		if rtt <= 0 {
			t.Errorf("attempt %s reported non-positive rtt %v", method, rtt)
		}
		attempts = append(attempts, err)
	}
	cli.OnEpochFail = func(err error) {
		mu.Lock()
		defer mu.Unlock()
		epochFails = append(epochFails, err)
	}

	if err := cli.Call("echo", echoReq{Note: "ok"}, &echoResp{}); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	if len(attempts) != 1 || attempts[0] != nil {
		t.Fatalf("attempts after success = %v, want one nil entry", attempts)
	}
	if len(epochFails) != 0 {
		t.Fatalf("epoch fails after success = %v", epochFails)
	}
	mu.Unlock()

	// A per-call deadline expiry poisons the epoch: exactly one epoch
	// failure, and the attempt reports its error.
	cli.Timeout = 30 * time.Millisecond
	if err := cli.Call("slow", echoReq{}, &echoResp{}); err == nil {
		t.Fatal("slow call beat a 30ms deadline")
	}
	mu.Lock()
	if len(epochFails) != 1 {
		t.Fatalf("epoch fails after deadline = %d, want 1", len(epochFails))
	}
	if len(attempts) != 2 || attempts[1] == nil {
		t.Fatalf("attempts after deadline = %v, want a second, failed entry", attempts)
	}
	mu.Unlock()

	// Close is administrative: the hook must not blame a replica.
	cli.Timeout = 0
	if err := cli.Close(); err != nil && !errors.Is(err, errClientClosed) {
		t.Logf("close: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(epochFails) != 1 {
		t.Fatalf("Close fired the epoch-fail hook: %v", epochFails)
	}
}
