// Package rmi is gocad's stand-in for Java RMI: a compact remote-method
// protocol over TCP (or any net.Conn) with HMAC-authenticated sessions,
// client-side stubs, an enforced marshalling policy (only port-value
// data crosses the IP boundary), and hooks for network emulation and
// blocked-time metering. It retains the properties the paper relies on:
// remote method invocation with proper argument/return serialization, a
// secure channel between IP user and IP provider, and per-call overhead
// that pattern buffering must amortize.
//
// Every message travels in hand-rolled wire format v1 (DESIGN.md §12):
// a fixed little-endian header, varint fields and length-prefixed
// sections in pooled buffers, so steady-state framing allocates nothing.
// Payloads are the envelopes' own AppendTo/DecodeFrom encodings — the
// one codec that crosses the IP boundary, with no reflective fallback.
package rmi

import (
	"fmt"

	"repro/internal/security"
)

// frame kinds.
const (
	kindHello uint8 = iota + 1
	kindWelcome
	kindRequest
	kindResponse
)

// frame is the single wire envelope; unused fields stay zero.
type frame struct {
	Kind    uint8
	ID      uint64
	Session string
	Method  string
	Payload []byte
	Err     string
	Client  string
	Nonce   []byte
	Tag     string
}

// binPayloadTag opens every payload: a version-1 payload is the tag byte
// followed by the envelope's AppendTo encoding. Decode rejects payloads
// that do not start with it.
const binPayloadTag = 0x00

// BinaryAppender is implemented by payload envelopes with a hand-written
// binary encoding: AppendTo appends the type's wire form to b and
// returns the extended slice.
type BinaryAppender interface {
	AppendTo(b []byte) []byte
}

// BinaryDecoder is the decode half of BinaryAppender, implemented on the
// pointer type. DecodeFrom must consume b exactly and must validate
// every length prefix against the bytes present — it sees untrusted
// input.
type BinaryDecoder interface {
	DecodeFrom(b []byte) error
}

// Envelope is everything that may cross the IP boundary as a request or
// response: a value that declares its port data to the marshalling
// policy and carries its own binary encoding. An envelope type without
// either does not compile as an argument or a handler result.
type Envelope interface {
	PortData
	BinaryAppender
}

// EncodePayload serializes a payload envelope for transport.
func EncodePayload(v BinaryAppender) []byte {
	return appendPayload(nil, v)
}

// appendPayload is EncodePayload into a caller-provided buffer (the
// server's pooled response frames recycle their payload buffers through
// here).
func appendPayload(dst []byte, v BinaryAppender) []byte {
	return v.AppendTo(append(dst, binPayloadTag))
}

// Decode deserializes a tagged payload into v.
func Decode(b []byte, v BinaryDecoder) error {
	if len(b) == 0 || b[0] != binPayloadTag {
		return fmt.Errorf("rmi: decode into %T: payload is not a wire-format-v1 payload", v)
	}
	if err := v.DecodeFrom(b[1:]); err != nil {
		return fmt.Errorf("rmi: decode into %T: %w", v, err)
	}
	return nil
}

// PortData is implemented by every request and response envelope to
// expose its design-derived content to the marshalling policy. An
// envelope that cannot enumerate its port-value data cannot cross the
// boundary at all — this is what makes the policy a default-deny check
// rather than a blocklist.
type PortData interface {
	PortData() []any
}

// PortCounter is an optional refinement of PortData for envelopes whose
// fields are statically port-value types (bits, words, numeric scalars,
// strings, and slices thereof): PortValueCount returns the total the
// policy's canonical walk would compute over PortData(), so the
// outbound check reduces to a budget comparison without materializing
// the []any boxing on every call — the last per-call allocation the
// wire codec cannot remove. The two counts must agree; the iplib
// envelope tests cross-check every implementation against
// security.ValueCount.
type PortCounter interface {
	PortValueCount() int
}

// checkOutbound vets one envelope against the marshalling policy,
// taking the self-counting fast path when the envelope offers it.
func checkOutbound(policy *security.MarshalPolicy, pd PortData) error {
	if pc, ok := pd.(PortCounter); ok {
		return policy.CheckCount(pc.PortValueCount())
	}
	for _, v := range pd.PortData() {
		if err := policy.CheckOutbound(v); err != nil {
			return err
		}
	}
	return nil
}

// RemoteError is returned by Call when the remote method failed.
type RemoteError struct {
	Method string
	Msg    string
}

// Error implements error.
func (e *RemoteError) Error() string {
	return fmt.Sprintf("rmi: remote %s: %s", e.Method, e.Msg)
}
