package rmi

import (
	"bytes"
	"encoding/binary"
	"io"
	"reflect"
	"testing"
)

// FuzzBinaryCodec asserts the wire-format-v1 framing is the identity
// for arbitrary field contents: whatever appendFrame emits, the binary
// reader must reconstruct field for field, including section boundaries
// for strings containing NULs, the magic byte, and multi-byte varint
// lengths.
func FuzzBinaryCodec(f *testing.F) {
	for _, fr := range fuzzSeedFrames() {
		f.Add(fr.Kind, fr.ID, fr.Session, fr.Method, fr.Payload, fr.Err, fr.Client, fr.Nonce, fr.Tag)
	}
	f.Add(uint8(0xff), uint64(1)<<63, "\x00", "\x00\xd5\x01", []byte{0x00, 0xd5}, "e", "c", []byte{}, "t")
	f.Fuzz(func(t *testing.T, kind uint8, id uint64, session, method string, payload []byte, errStr, client string, nonce []byte, tag string) {
		in := frame{Kind: kind, ID: id, Session: session, Method: method,
			Payload: payload, Err: errStr, Client: client, Nonce: nonce, Tag: tag}
		raw, err := appendFrame(nil, &in)
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		br := &binFrameReader{r: bytes.NewReader(raw)}
		var out frame
		if err := br.readFrame(&out); err != nil {
			t.Fatalf("decode of own encoding failed: %v", err)
		}
		if out.Kind != in.Kind || out.ID != in.ID || out.Session != in.Session ||
			out.Method != in.Method || out.Err != in.Err || out.Client != in.Client || out.Tag != in.Tag {
			t.Fatalf("round trip mutated scalar fields: %+v -> %+v", in, out)
		}
		// Zero-length sections decode to nil; compare contents.
		if !bytes.Equal(out.Payload, in.Payload) || !bytes.Equal(out.Nonce, in.Nonce) {
			t.Fatalf("round trip mutated byte fields: %+v -> %+v", in, out)
		}
		// Every frame is fully consumed: a second read must see EOF, not
		// leftover bytes misparsed as another frame.
		var extra frame
		if err := br.readFrame(&extra); err != io.EOF {
			t.Fatalf("trailing bytes after one frame: %v", err)
		}
	})
}

// FuzzBinaryDecode feeds adversarial bytes to the binary frame reader —
// truncated headers, corrupted magic, oversized varints, length
// prefixes pointing past the buffer. Garbage must come back as an
// error: no panic, no hang, and no allocation driven by a length claim
// the buffer cannot back (section prefixes are bounds-checked against
// the bytes actually present before any allocation; the header's body
// length is capped at maxFrameBody). Anything that does decode must
// re-encode and decode to the same frame.
func FuzzBinaryDecode(f *testing.F) {
	for _, fr := range fuzzSeedFrames() {
		raw, err := appendFrame(nil, &fr)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
		f.Add(raw[:len(raw)/2]) // mid-frame truncation
	}
	// Header claiming a body far larger than the bytes behind it.
	{
		hdr := []byte{binMagic0, binMagic1, binVersion, kindRequest, 0, 0, 0, 0}
		binary.LittleEndian.PutUint32(hdr[4:8], 1<<30)
		f.Add(append(hdr, 0x01, 0x02))
	}
	// Body-length overflow: past maxFrameBody entirely.
	{
		hdr := []byte{binMagic0, binMagic1, binVersion, kindRequest, 0xff, 0xff, 0xff, 0xff}
		f.Add(hdr)
	}
	// An oversized varint: ten continuation bytes where the frame ID goes.
	{
		hdr := []byte{binMagic0, binMagic1, binVersion, kindRequest, 11, 0, 0, 0}
		f.Add(append(hdr, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01))
	}
	// A section length prefix pointing past the body.
	{
		body := []byte{0x01 /* id */, 0x7f /* session len 127, 0 bytes follow */}
		hdr := []byte{binMagic0, binMagic1, binVersion, kindRequest, byte(len(body)), 0, 0, 0}
		f.Add(append(hdr, body...))
	}
	f.Add([]byte{})
	f.Add([]byte{binMagic0})
	f.Add([]byte{binMagic0, binMagic1, 0xee, 0, 0, 0, 0, 0}) // wrong version
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		br := &binFrameReader{r: bytes.NewReader(data)}
		var fr frame
		if err := br.readFrame(&fr); err != nil {
			return // rejection is the expected outcome for garbage
		}
		// Accepted frames must re-encode and decode to the same meaning —
		// the decoder may tolerate non-minimal varints, but never invent
		// or drop content.
		raw, err := appendFrame(nil, &fr)
		if err != nil {
			t.Fatalf("accepted frame does not re-encode: %+v: %v", fr, err)
		}
		var again frame
		if err := (&binFrameReader{r: bytes.NewReader(raw)}).readFrame(&again); err != nil {
			t.Fatalf("re-encoded frame does not decode: %v", err)
		}
		if !reflect.DeepEqual(fr, again) {
			t.Fatalf("decode/encode/decode not a fixpoint:\n first: %#v\nsecond: %#v", fr, again)
		}
		// The payload decoder must be equally robust against the raw
		// input, tagged or not.
		var env echoReq
		_ = Decode(data, &env)
	})
}
