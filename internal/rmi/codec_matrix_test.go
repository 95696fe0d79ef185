package rmi

import (
	"bytes"
	"fmt"
	"net"
	"strings"
	"sync/atomic"
	"testing"
)

// This file is the poisoning matrix: every protocol-level fault that must
// poison the mux epoch — wrong frame kind, unknown response ID,
// mid-frame truncation — runs against the rogue-server scripts of
// resilience_test.go, and the client must heal through journal replay.

// rogueWrongKind answers the first request with a correctly-correlated
// ID but a nonsense frame kind — a confused peer rather than a
// desynchronized stream. The mux must poison the epoch anyway.
func rogueWrongKind(conn net.Conn, fw *binFrameWriter, fr *binFrameReader, requests *atomic.Int32) {
	var req frame
	if fr.readFrame(&req) != nil {
		return
	}
	requests.Add(1)
	fw.writeFrame(&frame{Kind: kindHello, ID: req.ID})
}

// rogueTruncateMidFrame reads one request, writes exactly half of a
// valid response frame's raw bytes, and slams the connection shut. The
// client's reader sees a short read inside a frame; the epoch must
// poison and heal exactly as for a whole-frame loss.
func rogueTruncateMidFrame(conn net.Conn, fw *binFrameWriter, fr *binFrameReader, requests *atomic.Int32) {
	var req frame
	if fr.readFrame(&req) != nil {
		return
	}
	requests.Add(1)
	raw, err := appendFrame(nil, &frame{Kind: kindResponse, ID: req.ID, Payload: []byte("half-delivered response body")})
	if err != nil {
		return
	}
	conn.Write(raw[:len(raw)/2])
	conn.Close()
}

// TestMuxPoisonMatrix runs the poison-and-heal contract for every
// fault. With retry armed, the faulted call must succeed on a fresh
// epoch (connection 2 of the rogue server echoes correctly), the client
// must record exactly one reconnect, and follow-up calls must stay
// aligned — no cross-call data, no stale frames surfacing later.
func TestMuxPoisonMatrix(t *testing.T) {
	faults := []struct {
		name   string
		behave rogueBehavior
	}{
		{"wrong-kind", rogueWrongKind},
		{"unknown-id", rogueStaleID},
		{"mid-frame-truncation", rogueTruncateMidFrame},
	}
	for _, fault := range faults {
		t.Run(fmt.Sprintf("binary/%s", fault.name), func(t *testing.T) {
			r := startRogue(t, fault.behave)
			cli := rogueClient(t, r)
			cli.Retry = fastRetry
			if err := cli.Call("m", echoReq{Note: "poison"}, nil); err != nil {
				t.Fatalf("%v not healed: %v", fault.name, err)
			}
			if got := cli.Reconnects(); got != 1 {
				t.Errorf("reconnects = %d, want 1 (fault must poison the epoch exactly once)", got)
			}
			if cli.Dead() {
				t.Error("healed client declared dead")
			}
			for i := 0; i < 5; i++ {
				if err := cli.Call("m", echoReq{}, nil); err != nil {
					t.Fatalf("post-heal call %d: %v", i, err)
				}
			}
		})
	}
}

// TestMuxPoisonSurfacesWithoutRetry is the no-retry half of the matrix:
// with replay disabled the poison fault must reach the caller as an
// error (never a hang, never another call's data), and the next call
// must run on a fresh epoch rather than reuse the poisoned stream.
func TestMuxPoisonSurfacesWithoutRetry(t *testing.T) {
	faults := []struct {
		name    string
		behave  rogueBehavior
		errWant string
	}{
		{"wrong-kind", rogueWrongKind, "desynchronized"},
		{"unknown-id", rogueStaleID, "desynchronized"},
		{"mid-frame-truncation", rogueTruncateMidFrame, "receive"},
	}
	for _, fault := range faults {
		t.Run(fmt.Sprintf("binary/%s", fault.name), func(t *testing.T) {
			r := startRogue(t, fault.behave)
			cli := rogueClient(t, r)
			cli.Retry = RetryPolicy{}
			err := cli.Call("m", echoReq{}, nil)
			if err == nil || !strings.Contains(err.Error(), fault.errWant) {
				t.Fatalf("err = %v, want %q fault surfaced", err, fault.errWant)
			}
			cli.Retry = fastRetry
			if err := cli.Call("m", echoReq{}, nil); err != nil {
				t.Fatalf("follow-up call on fresh epoch: %v", err)
			}
		})
	}
}

// parityFrames covers every frame kind and the edge shapes of each
// section: absent fields, empty-but-present slices, huge IDs, non-ASCII
// and NUL-bearing strings, and a payload large enough to cross several
// varint length boundaries.
func parityFrames() []frame {
	big := bytes.Repeat([]byte{0xA5, 0x00, 0xFF}, 7001)
	return []frame{
		{Kind: kindHello, Client: "user", Nonce: []byte{1, 2, 3}, Tag: "mac"},
		{Kind: kindWelcome, Session: "s-1"},
		{Kind: kindRequest, ID: 1, Session: "s-1", Method: "eval", Payload: []byte{0x00, 0x01}},
		{Kind: kindRequest, ID: 1<<64 - 1, Session: "s", Method: strings.Repeat("m", 300), Payload: big},
		{Kind: kindResponse, ID: 7, Payload: []byte("ok")},
		{Kind: kindResponse, ID: 8, Err: "remote: boom\x00trailer — ünïcode"},
		{Kind: kindResponse},
		{Kind: kindRequest, ID: 2, Session: "s-1", Method: "eval", Payload: []byte{}},
	}
}

// TestBinaryFrameGoldenSize pins the exact binary encoding size: header
// (8) + uvarint(ID) + seven uvarint-prefixed sections. A size change is
// a wire format change and must come with a version bump (DESIGN.md
// §12).
func TestBinaryFrameGoldenSize(t *testing.T) {
	uvlen := func(v uint64) int {
		n := 1
		for v >= 0x80 {
			v >>= 7
			n++
		}
		return n
	}
	sec := func(n int) int { return uvlen(uint64(n)) + n }
	for i, f := range parityFrames() {
		raw, err := appendFrame(nil, &f)
		if err != nil {
			t.Fatal(err)
		}
		want := binHeaderLen + uvlen(f.ID) +
			sec(len(f.Session)) + sec(len(f.Method)) + sec(len(f.Payload)) +
			sec(len(f.Err)) + sec(len(f.Client)) + sec(len(f.Nonce)) + sec(len(f.Tag))
		if len(raw) != want {
			t.Errorf("frame-%d: encoded %d bytes, want %d", i, len(raw), want)
		}
	}
}
