package rmi

import (
	"fmt"
	"testing"

	"repro/internal/signal"
)

// benchEnvelope builds a power-batch-shaped payload of n patterns.
func benchEnvelope(n int) echoReq {
	bits := make([]signal.Bit, 64*n)
	for i := range bits {
		bits[i] = signal.Bit(i % 2)
	}
	return echoReq{Bits: bits, Note: "bench"}
}

// BenchmarkEncode measures the payload encoder across payload sizes,
// appending into one reused buffer the way the server's pooled response
// frames do: allocs/op must be zero at every size.
func BenchmarkEncode(b *testing.B) {
	for _, n := range []int{1, 16, 256} {
		env := benchEnvelope(n)
		b.Run(fmt.Sprintf("patterns=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			var buf []byte
			for i := 0; i < b.N; i++ {
				buf = appendPayload(buf[:0], env)
			}
		})
	}
}

// BenchmarkDecode measures the payload decode path.
func BenchmarkDecode(b *testing.B) {
	for _, n := range []int{1, 16, 256} {
		raw := EncodePayload(benchEnvelope(n))
		b.Run(fmt.Sprintf("patterns=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var out echoReq
				if err := Decode(raw, &out); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestEncodeScratchAmortized pins the encode path's scratch reuse
// without benchmark flakiness: appending a payload into a buffer that
// already holds one allocates nothing, whatever the payload size — the
// buffer's backing array is grown once and then reused, as the server's
// pooled response frames reuse theirs.
func TestEncodeScratchAmortized(t *testing.T) {
	for _, n := range []int{1, 256} { // 256 patterns ≈ 16 KiB of pattern bits
		env := benchEnvelope(n)
		buf := appendPayload(nil, env)
		if got := testing.AllocsPerRun(100, func() { buf = appendPayload(buf[:0], env) }); got != 0 {
			t.Errorf("%d patterns: %.1f allocs per encode into a reused buffer, want 0", n, got)
		}
	}
}
