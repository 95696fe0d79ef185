package rmi

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/leakcheck"
	"repro/internal/security"
)

// TestHandshakeDeadlineStalledDialer is the regression test for the
// handshake-hang exposure: a client that connects and never sends its
// hello frame used to park a ServeConn goroutine indefinitely when no
// IdleTimeout was set. With the handshake deadline the server must
// close the connection and release the goroutine on its own.
func TestHandshakeDeadlineStalledDialer(t *testing.T) {
	leakcheck.Check(t)
	srv := NewServer("prov")
	srv.HandshakeTimeout = 100 * time.Millisecond
	key, _ := security.NewKey()
	srv.Authorize("user", key)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Say nothing. The server must hang up on us, which we observe as
	// the read side of our connection closing.
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 1)
	if _, err := conn.Read(buf); err == nil {
		t.Fatal("server sent data to a client that never completed the handshake")
	} else if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatal("server kept a never-speaking connection open past the handshake deadline")
	}
}

// TestHandshakeDeadlinePartialHello stalls one byte into the protocol
// (the first byte of a frame header, not enough to form a hello frame):
// the deadline must still cut the connection loose.
func TestHandshakeDeadlinePartialHello(t *testing.T) {
	leakcheck.Check(t)
	srv := NewServer("prov")
	srv.HandshakeTimeout = 100 * time.Millisecond
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte{binMagic0}); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 1)
	if _, err := conn.Read(buf); err == nil {
		t.Fatal("server answered a half-handshake")
	} else if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatal("server kept a stalled half-handshake open past the deadline")
	}
}

// TestHandshakeGobHelloDropped: a peer speaking the retired gob framing
// is not a wire-format-v1 peer. Its hello must be refused at once with a
// logged magic error — well inside the handshake deadline, not by
// waiting it out — and no session may open.
func TestHandshakeGobHelloDropped(t *testing.T) {
	leakcheck.Check(t)
	const deadline = 5 * time.Second
	var (
		mu   sync.Mutex
		logs []string
	)
	srv := NewServer("prov")
	srv.HandshakeTimeout = deadline
	srv.Logf = func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		logs = append(logs, fmt.Sprintf(format, args...))
	}
	key, _ := security.NewKey()
	srv.Authorize("user", key)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	nonce := []byte("0123456789abcdef")
	hello := frame{Kind: kindHello, Client: "user", Nonce: nonce, Tag: key.Tag(append(nonce, "user"...))}
	var gobHello bytes.Buffer
	if err := gob.NewEncoder(&gobHello).Encode(&hello); err != nil {
		t.Fatal(err)
	}
	// One write: the server hangs up after the header, so a second write
	// could meet a reset.
	if _, err := conn.Write(gobHello.Bytes()); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_ = conn.SetReadDeadline(time.Now().Add(2 * deadline))
	if _, err := conn.Read(make([]byte, 1)); err == nil {
		t.Fatal("server answered a gob hello")
	}
	if took := time.Since(start); took >= deadline/2 {
		t.Fatalf("gob hello dropped after %v; the server waited for the %v handshake deadline", took, deadline)
	}
	if n := len(srv.Sessions()); n != 0 {
		t.Errorf("%d session(s) opened for a gob peer", n)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(logs) != 1 || !strings.Contains(logs[0], "bad frame magic") {
		t.Errorf("logs = %q, want one bad-frame-magic line", logs)
	}
}

// TestSessionRetiredOnDisconnect: the session table must not grow one
// entry per connection forever — a closed connection retires its
// session.
func TestSessionRetiredOnDisconnect(t *testing.T) {
	leakcheck.Check(t)
	srv, cli := newTestPair(t, nil)
	if got := len(srv.Sessions()); got != 1 {
		t.Fatalf("sessions while connected = %d, want 1", got)
	}
	cli.Close()
	deadline := time.Now().Add(2 * time.Second)
	for len(srv.Sessions()) != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("session not retired after disconnect: %d live", len(srv.Sessions()))
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestLogfRateLimited feeds a 10k-line burst through the server's
// logging path (what a reject storm produces) and asserts the sink sees
// a bounded number of lines plus a suppression summary — the log must
// never become the bottleneck of the rejection path itself.
func TestLogfRateLimited(t *testing.T) {
	var mu sync.Mutex
	var lines []string
	srv := NewServer("prov")
	srv.LogBurst = 20
	srv.Logf = func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		lines = append(lines, format)
	}
	for i := 0; i < 10_000; i++ {
		srv.logf("rmi server %s: handshake rejected from %v: %v", srv.Name, "peer", "overload")
	}
	mu.Lock()
	n := len(lines)
	mu.Unlock()
	// The burst can straddle one window boundary: at most two windows'
	// worth of lines (plus one summary) may land.
	if n > 2*srv.LogBurst+1 {
		t.Fatalf("10k-line burst produced %d log lines, want <= %d", n, 2*srv.LogBurst+1)
	}

	// The next window must surface the suppressed count loudly.
	time.Sleep(1100 * time.Millisecond)
	srv.logf("post-burst line")
	mu.Lock()
	defer mu.Unlock()
	var sawSummary bool
	for _, l := range lines {
		if strings.Contains(l, "suppressed by rate limit") {
			sawSummary = true
		}
	}
	if !sawSummary {
		t.Fatalf("no suppression summary after a 10k burst; lines: %d", len(lines))
	}
}

// TestLogfUnlimitedOptOut pins the escape hatch: LogBurst < 0 disables
// sampling entirely.
func TestLogfUnlimitedOptOut(t *testing.T) {
	var n atomic.Int64
	srv := NewServer("prov")
	srv.LogBurst = -1
	srv.Logf = func(format string, args ...any) { n.Add(1) }
	for i := 0; i < 500; i++ {
		srv.logf("line %d", i)
	}
	if got := n.Load(); got != 500 {
		t.Fatalf("unlimited logf emitted %d of 500 lines", got)
	}
}
