package rmi

import (
	"crypto/rand"
	"errors"
	"fmt"
	mrand "math/rand/v2"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/netsim"
	"repro/internal/security"
)

// errSuperseded marks the deliberate replacement of a transport epoch
// during reconnect — an administrative teardown, not a replica failure,
// so the OnEpochFail hook never sees it.
var errSuperseded = errors.New("rmi: connection superseded")

// HandshakeError is the server's explicit refusal of a connection
// handshake: the welcome frame arrived but carried an error instead of
// a session. Unlike a transport fault, the refusal text is the server
// speaking deliberately — authentication failure or the gateway's typed
// admission rejections (which internal/gateway classifies from Msg via
// Reason). Callers unwrap it with errors.As.
type HandshakeError struct{ Msg string }

// Error implements error.
func (e *HandshakeError) Error() string { return e.Msg }

// countingConn wraps a net.Conn and counts the bytes read, so the mux
// reader can size each response for the network emulator (a request's
// size is its encoded frame length). After the pumps start, read is
// touched only by the reader goroutine, so the per-frame deltas need no
// further synchronization.
type countingConn struct {
	net.Conn
	read int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.read += int64(n)
	return n, err
}

// Client is a gocad user-side RPC endpoint: the stub layer of a remote
// component. A client owns one authenticated session with one provider
// server. The transport is multiplexed and pipelined: up to MaxInFlight
// calls can be on the wire concurrently, correlated back to their
// callers by frame ID, so concurrent Call/Go users share the connection
// instead of queueing stop-and-wait behind each other. MaxInFlight 1
// reproduces the classic serialized RMI behavior exactly.
//
// A client is resilient when configured with a Timeout (per-call
// deadline), a Retry policy (backoff for idempotent calls), and a Redial
// function (automatic reconnect + session re-handshake after a broken
// connection). A transport fault fails every call in flight on the
// multiplexed connection; each failed call retries independently under
// its own policy. When every attempt is exhausted the provider is
// declared dead: the call fails with an error wrapping ErrProviderDead
// and all further calls fail fast, letting the estimation layer degrade
// instead of hanging.
type Client struct {
	// Name is the client (IP user) identity presented to the provider.
	Name string
	// Profile is the emulated network environment; zero (InProcess)
	// means no injected delay. Each in-flight call sleeps its own
	// emulated round trip concurrently — overlapping, not summing — which
	// is how a real pipelined link behaves.
	Profile netsim.Profile
	// Meter, when non-nil, accumulates blocked-time accounting.
	Meter *netsim.Meter
	// Policy vets outbound payloads; nil uses security.DefaultPolicy.
	Policy *security.MarshalPolicy
	// Timeout bounds each call attempt's transport wait (send-queue wait,
	// write, and response read) and each reconnect handshake. Zero means
	// no deadline. A timed-out connection is in an undefined protocol
	// state and is abandoned — every call in flight on it fails; a
	// resilient client reconnects on the next attempt.
	Timeout time.Duration
	// Retry governs backoff retry of transport failures for idempotent
	// calls. The zero value disables retry.
	Retry RetryPolicy
	// Idempotent reports whether a method may safely be re-invoked after
	// an ambiguous transport failure (the request may or may not have
	// executed). nil treats every method as idempotent; callers with
	// non-idempotent methods must install a predicate (internal/iplib
	// provides one for the IP protocol).
	Idempotent func(method string) bool
	// Redial reopens the transport for automatic reconnect; nil disables
	// reconnection. Dial installs a TCP redialer automatically.
	Redial func() (net.Conn, error)
	// OnReconnect, when non-nil, replays application session state after
	// a successful re-handshake (the new server session starts empty —
	// bound instances are gone). It runs before the new connection
	// accepts pipelined calls; it must issue calls only through the
	// supplied do function, never through Call/Go.
	OnReconnect func(do func(method string, args Envelope, reply BinaryDecoder) error) error
	// Recorder, when non-nil, observes each successful call in exact
	// wire order. With pipelined calls completing out of order, a
	// sequence gate re-establishes send order before invoking the hook,
	// so the session-replay journal hanging off it stays a faithful wire
	// transcript. Replayed calls are not re-recorded.
	Recorder func(method string, args Envelope, reply BinaryDecoder)
	// MaxInFlight bounds how many calls may be in flight on the
	// connection at once: 0 selects DefaultInFlight, 1 serializes calls
	// (the legacy stop-and-wait behavior, and the determinism baseline).
	// Set it before issuing concurrent calls; it is read per call.
	MaxInFlight int
	// OnEpochFail, when non-nil, observes each genuine transport-epoch
	// failure — deliberate supersession during reconnect and client
	// Close are filtered out. It is the replica layer's breaker feed
	// (one penalty per poisoned epoch, however many calls it took
	// down). The hook runs on the failing goroutine with no client
	// locks held; it must not call back into the Client.
	OnEpochFail func(err error)
	// OnAttempt, when non-nil, observes every completed wire attempt:
	// the method, its measured round-trip time (send-queue wait through
	// response decode, before any emulated-profile padding), and the
	// outcome. Retried calls report once per attempt. The replica layer
	// uses it to feed per-replica EWMA latency.
	OnAttempt func(method string, rtt time.Duration, err error)

	key security.Key // for session re-handshake on reconnect

	nextID atomic.Uint64 // call IDs; monotonic across transport epochs

	jmu    sync.Mutex // guards jitter (shared by emulation and backoff)
	jitter *mrand.Rand

	mu         sync.Mutex
	tr         *mux // current transport epoch; replaced whole on reconnect
	session    string
	closed     bool // Close was called; permanent
	dead       bool // retries + reconnects exhausted; permanent
	reconnects int

	// term closes when the client reaches a terminal state (Close or
	// provider declared dead), aborting any backoff sleep promptly.
	term     chan struct{}
	termOnce sync.Once
}

// Dial connects to a provider server over TCP and authenticates with the
// shared key. The returned client can redial the same address, so
// setting Retry is enough to make it resilient.
func Dial(addr, clientName string, key security.Key) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c, err := NewClient(conn, clientName, key)
	if err != nil {
		return nil, err
	}
	c.Redial = func() (net.Conn, error) { return net.Dial("tcp", addr) }
	return c, nil
}

// NewClient runs the handshake over an existing connection (net.Pipe for
// in-process loopback deployments, or any emulated transport) and starts
// the transport pumps.
func NewClient(conn net.Conn, clientName string, key security.Key) (*Client, error) {
	c := &Client{
		Name:   clientName,
		key:    key,
		jitter: mrand.New(mrand.NewPCG(0x90cad, 0x1999)),
		term:   make(chan struct{}),
	}
	m, err := c.attach(conn)
	if err != nil {
		return nil, err
	}
	m.start()
	c.tr = m
	c.session = m.session
	return c, nil
}

// attach runs the authentication handshake over conn and returns the new
// transport epoch, pumps not yet started (reconnect interposes session
// replay first). On failure conn is closed and the previous transport
// state is untouched.
func (c *Client) attach(conn net.Conn) (*mux, error) {
	cc := &countingConn{Conn: conn}
	// The reader may alias payloads into its reusable buffer: the mux
	// reader decodes each response payload into the caller's reply
	// synchronously, before reading the next frame.
	fw, fr := &binFrameWriter{w: cc}, &binFrameReader{r: cc, aliasPayload: true}
	if c.Timeout > 0 {
		_ = conn.SetDeadline(time.Now().Add(c.Timeout))
	}
	nonce := make([]byte, 16)
	if _, err := rand.Read(nonce); err != nil {
		conn.Close()
		return nil, err
	}
	msg := append(append([]byte(nil), nonce...), c.Name...)
	hello := frame{Kind: kindHello, Client: c.Name, Nonce: nonce, Tag: c.key.Tag(msg)}
	if err := fw.writeFrame(&hello); err != nil {
		conn.Close()
		return nil, fmt.Errorf("rmi: handshake send: %w", err)
	}
	var welcome frame
	if err := fr.readFrame(&welcome); err != nil {
		conn.Close()
		return nil, fmt.Errorf("rmi: handshake receive: %w", err)
	}
	if welcome.Err != "" {
		conn.Close()
		return nil, &HandshakeError{Msg: welcome.Err}
	}
	if c.Timeout > 0 {
		_ = conn.SetDeadline(time.Time{})
	}
	return newMux(c, cc, fw, fr, welcome.Session), nil
}

// depth normalizes MaxInFlight to the effective in-flight bound.
func (c *Client) depth() int {
	if c.MaxInFlight <= 0 {
		return DefaultInFlight
	}
	return c.MaxInFlight
}

// nextCallID issues a request ID, monotonic across reconnects.
func (c *Client) nextCallID() uint64 { return c.nextID.Add(1) }

// Session returns the authenticated session identifier. It changes after
// an automatic reconnect (the provider opens a fresh session).
func (c *Client) Session() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.session
}

// Dead reports whether the provider has been declared dead (every retry
// and reconnect attempt exhausted).
func (c *Client) Dead() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dead
}

// Reconnects returns how many automatic reconnects have succeeded.
func (c *Client) Reconnects() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.reconnects
}

// PeakInFlight returns the high-water mark of concurrently in-flight
// calls on the current transport epoch — observability for tests and
// tuning (it resets on reconnect).
func (c *Client) PeakInFlight() int {
	c.mu.Lock()
	tr := c.tr
	c.mu.Unlock()
	if tr == nil {
		return 0
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return tr.peak
}

// terminate signals terminal state (close or dead) to backoff sleepers.
func (c *Client) terminate() {
	c.termOnce.Do(func() { close(c.term) })
}

// Close shuts the connection down: every call in flight fails, and all
// future calls are rejected. A call sleeping in its retry backoff aborts
// promptly instead of waiting the ladder out.
func (c *Client) Close() error {
	c.mu.Lock()
	alreadyClosed := c.closed
	c.closed = true
	tr := c.tr
	c.mu.Unlock()
	c.terminate()
	if tr == nil || alreadyClosed {
		return nil
	}
	return tr.fail(errClientClosed)
}

// Call invokes a remote method synchronously: args is the request
// envelope, reply is a pointer to the response envelope (nil discards
// the response). The emulated network
// delay for the call's actual byte volume is injected, and the total
// time blocked is metered.
func (c *Client) Call(method string, args Envelope, reply BinaryDecoder) error {
	return c.call(method, args, reply, true)
}

// call implements Call; meterBlocked distinguishes synchronous calls
// (whose wait stalls the caller and counts as blocked time) from
// nonblocking worker-goroutine calls (whose wait overlaps useful work —
// only the byte/call counters apply; any end-of-run drain is metered by
// the caller).
func (c *Client) call(method string, args Envelope, reply BinaryDecoder, meterBlocked bool) error {
	policy := c.Policy
	if policy == nil {
		policy = &security.DefaultPolicy
	}
	if err := checkOutbound(policy, args); err != nil {
		return err
	}
	payload := EncodePayload(args)

	start := time.Now()
	attempts := c.Retry.attempts()
	var lastErr error
	for a := 0; a < attempts; a++ {
		if a > 0 {
			c.jmu.Lock()
			d := c.Retry.backoff(a, c.jitter)
			c.jmu.Unlock()
			if err := c.sleepBackoff(d, method); err != nil {
				return err
			}
		}
		sent, recvd, err := c.exchange(method, args, payload, reply)
		if err == nil {
			if c.Meter != nil {
				if meterBlocked {
					c.Meter.AddBlocked(time.Since(start))
				}
				c.Meter.AddCall(sent + recvd)
			}
			return nil
		}
		lastErr = err
		if !retryable(err) || !c.methodIdempotent(method) {
			return err
		}
	}
	if attempts > 1 {
		// A configured retry policy ran dry: declare the provider dead so
		// queued and future calls fail fast instead of re-walking the
		// whole backoff ladder.
		c.mu.Lock()
		if !c.closed {
			c.dead = true
		}
		dead := c.dead
		c.mu.Unlock()
		if dead {
			c.terminate()
		}
		return deadError(method, attempts, lastErr)
	}
	return lastErr
}

// sleepBackoff waits out one backoff delay, aborting promptly if the
// client reaches a terminal state (Close, or another call declaring the
// provider dead) — a closed client must not keep goroutines parked in
// the backoff ladder.
func (c *Client) sleepBackoff(d time.Duration, method string) error {
	if d <= 0 {
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-c.term:
		c.mu.Lock()
		defer c.mu.Unlock()
		if c.closed {
			return errClientClosed
		}
		return fmt.Errorf("rmi: %s: %w", method, ErrProviderDead)
	}
}

// methodIdempotent applies the Idempotent predicate (nil = all methods).
func (c *Client) methodIdempotent(method string) bool {
	return c.Idempotent == nil || c.Idempotent(method)
}

// transport returns a healthy transport epoch, reconnecting first if the
// previous one broke.
func (c *Client) transport(method string) (*mux, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, errClientClosed
	}
	if c.dead {
		return nil, fmt.Errorf("rmi: %s: %w", method, ErrProviderDead)
	}
	if c.tr == nil || c.tr.broken() {
		if err := c.reconnectLocked(); err != nil {
			return nil, fmt.Errorf("rmi: reconnect: %w", err)
		}
	}
	return c.tr, nil
}

// exchange performs one wire attempt: acquire an in-flight slot, enqueue
// the request, wait for the correlated response, then sleep the emulated
// transfer delay for the call's actual byte volume. Concurrent in-flight
// calls each sleep their own delay — the emulation overlaps like a real
// pipelined link instead of summing under a transport lock.
func (c *Client) exchange(method string, args Envelope, payload []byte, reply BinaryDecoder) (sent, recvd int, err error) {
	m, err := c.transport(method)
	if err != nil {
		return 0, 0, err
	}
	if err := m.acquire(); err != nil {
		return 0, 0, fmt.Errorf("rmi: %s: %w", method, err)
	}
	defer m.release()
	pc, err := m.enqueue(method, args, payload, reply)
	if err != nil {
		return 0, 0, err
	}
	wireStart := time.Now()
	<-pc.done
	sent, recvd = int(pc.sent.Load()), int(pc.recvd.Load())
	if h := c.OnAttempt; h != nil {
		h(method, time.Since(wireStart), pc.err)
	}
	if pc.err != nil {
		return sent, recvd, pc.err
	}
	// The slot is held through the emulated delay: at depth 1 queued
	// calls wait out the full round trip behind this one (the serialized
	// RMI link of the paper), at depth N the sleeps overlap. netsim.Wait
	// rather than time.Sleep: the runtime rounds sub-millisecond sleeps
	// up to its timer granularity, which would inflate the Local
	// profile's ~100µs round trips by 10×.
	if delay := c.emulatedDelay(sent, recvd); delay > 0 {
		netsim.Wait(delay)
	}
	return sent, recvd, nil
}

// emulatedDelay computes this call's injected round-trip time, drawing
// jitter from the client's seeded source.
func (c *Client) emulatedDelay(sent, recvd int) time.Duration {
	p := c.Profile
	if p.OneWay == 0 && p.PerKB == 0 && p.Jitter == 0 {
		return 0
	}
	c.jmu.Lock()
	defer c.jmu.Unlock()
	var jr *mrand.Rand
	if p.Jitter > 0 {
		jr = c.jitter
	}
	return p.EmulatedRoundTrip(sent, recvd, jr)
}

// reconnectLocked redials the transport, re-runs the authentication
// handshake (opening a fresh provider session), and replays application
// session state through OnReconnect — serially, on the bare connection,
// before the new epoch accepts pipelined traffic. The caller holds c.mu.
func (c *Client) reconnectLocked() error {
	if c.Redial == nil {
		return errors.New("rmi: connection broken")
	}
	if c.tr != nil {
		// Idempotent if the epoch already failed; otherwise this fails
		// any stragglers and closes the old conn. errSuperseded is
		// filtered from the OnEpochFail hook: replacement is not a
		// replica failure.
		_ = c.tr.fail(errSuperseded)
	}
	conn, err := c.Redial()
	if err != nil {
		return err
	}
	m, err := c.attach(conn)
	if err != nil {
		return err
	}
	c.reconnects++
	c.session = m.session
	if c.OnReconnect != nil {
		if err := c.OnReconnect(m.directCall); err != nil {
			_ = m.fail(errors.New("rmi: session replay failed"))
			return fmt.Errorf("session replay: %w", err)
		}
	}
	m.start()
	c.tr = m
	return nil
}

// Pending is an in-flight asynchronous call.
type Pending struct {
	// Done is closed when the call completes.
	Done chan struct{}
	err  error
}

// Err returns the call's outcome; it must be read after Done closes.
func (p *Pending) Err() error { return p.err }

// Go invokes a remote method asynchronously — the nonblocking estimation
// of the paper ("gate-level simulation runs are nonblocking; they use a
// new thread"). The reply must not be touched until Done closes.
// Concurrent Go calls pipeline on the shared connection up to
// MaxInFlight deep.
func (c *Client) Go(method string, args Envelope, reply BinaryDecoder) *Pending {
	p := &Pending{Done: make(chan struct{})}
	go func() {
		defer close(p.Done)
		p.err = c.call(method, args, reply, false)
	}()
	return p
}

// emulatedRoundTrip computes the injected delay; split out for testing.
func emulatedRoundTrip(profile netsim.Profile, sent, recvd int, jr *mrand.Rand) time.Duration {
	return profile.EmulatedRoundTrip(sent, recvd, jr)
}
