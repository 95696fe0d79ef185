package iplib

import (
	"bytes"
	"encoding/gob"
	"reflect"
	"testing"

	"repro/internal/fault"
	"repro/internal/rmi"
	"repro/internal/signal"
)

// pair couples one envelope value with the zero-valued pointer the
// decode side fills in, mirroring how rmi dispatches payloads.
type pair struct {
	name string
	in   rmi.Envelope      // envelope value
	out  rmi.BinaryDecoder // pointer to zero value
}

func binaryPairs() []pair {
	bits := []signal.Bit{signal.B0, signal.B1, signal.BX, signal.BZ, signal.B1}
	patterns := [][]signal.Bit{bits, {signal.B1}, nil, {signal.B0, signal.B0, signal.B0, signal.B0}}
	table := fault.DetectionTable{
		Input:     signal.Word{Bits: bits},
		FaultFree: signal.Word{Bits: []signal.Bit{signal.B1, signal.B0}},
		Rows: []fault.DetectionRow{
			{Output: signal.Word{Bits: []signal.Bit{signal.B0, signal.B1}}, Faults: []string{"f3/sa0", "f7/sa1"}},
			{Output: signal.Word{}, Faults: nil},
		},
	}
	return []pair{
		{"EvalReq", EvalReq{Instance: 42, Inputs: bits}, &EvalReq{}},
		{"EvalReq/empty", EvalReq{}, &EvalReq{}},
		{"EvalResp", EvalResp{Outputs: bits}, &EvalResp{}},
		{"PowerBatchReq", PowerBatchReq{Instance: 7, Patterns: patterns, SkipCompute: true}, &PowerBatchReq{}},
		{"PowerBatchReq/empty", PowerBatchReq{}, &PowerBatchReq{}},
		{"PowerBatchResp", PowerBatchResp{PowerPerPattern: []float64{0.25, -1e300, 0}, FeeCents: 12.5}, &PowerBatchResp{}},
		{"TimingBatchReq", TimingBatchReq{Instance: 1 << 60, Patterns: patterns}, &TimingBatchReq{}},
		{"TimingBatchResp", TimingBatchResp{DelayPerPattern: []float64{13.25}, FeeCents: 0.01}, &TimingBatchResp{}},
		{"StaticReq", StaticReq{Instance: 3, Param: "area"}, &StaticReq{}},
		{"StaticResp", StaticResp{Value: 128.5}, &StaticResp{}},
		{"FaultListReq", FaultListReq{Instance: 9}, &FaultListReq{}},
		{"FaultListResp", FaultListResp{Names: []string{"a/sa0", "b/sa1", ""}}, &FaultListResp{}},
		{"FaultTableReq", FaultTableReq{Instance: 5, Inputs: bits}, &FaultTableReq{}},
		{"FaultTableResp", FaultTableResp{Table: table}, &FaultTableResp{}},
		{"FaultTableResp/empty", FaultTableResp{}, &FaultTableResp{}},
		{"TestSetReq", TestSetReq{Instance: 2, MaxCandidates: 31, Seed: -12345}, &TestSetReq{}},
		{"TestSetResp", TestSetResp{Patterns: patterns, Coverage: 0.75, FeeCents: 3}, &TestSetResp{}},
		{"FeesReq", FeesReq{}, &FeesReq{}},
		{"FeesResp", FeesResp{TotalCents: 99.75}, &FeesResp{}},
		{"NegotiateReq", NegotiateReq{Component: "Mult", Constraints: []ModelConstraint{
			{Param: "power", MaxErrPct: 5, MaxCostCents: 0.25, ForbidRemote: true},
			{Param: "", MaxErrPct: -1, MaxCostCents: 0, ForbidRemote: false},
		}}, &NegotiateReq{}},
		{"NegotiateReq/empty", NegotiateReq{}, &NegotiateReq{}},
		{"NegotiateResp", NegotiateResp{Offers: []EstimatorOffer{
			{Name: "pw-fast", Param: "power", ErrPct: 8, CostCents: 0.1, CPUTimeMS: 2.5, Remote: true},
		}, Rejections: []string{"", "too pricey"}}, &NegotiateResp{}},
		{"CatalogueReq", CatalogueReq{}, &CatalogueReq{}},
		{"CatalogueResp", CatalogueResp{Specs: []ComponentSpec{
			{Name: "Mult", Description: "fast\x00multiplier", MinWidth: 2, MaxWidth: 64,
				PublicFactory: "mult", Testability: true, LicenseCents: 150,
				Estimators: []EstimatorOffer{{Name: "pw", Param: "power", ErrPct: 3}}},
			{Name: "Add", MinWidth: 1, MaxWidth: 8},
		}}, &CatalogueResp{}},
		{"CatalogueResp/empty", CatalogueResp{}, &CatalogueResp{}},
		{"BindReq", BindReq{Component: "Mult", Width: 16, Models: []string{"pw", "tm"}}, &BindReq{}},
		{"BindResp", BindResp{Instance: 11, LicenseCents: 150, Enabled: []EstimatorOffer{
			{Name: "pw", Param: "power", ErrPct: 3, CostCents: 0.5, CPUTimeMS: 1, Remote: true},
		}}, &BindResp{}},
	}
}

// TestBinaryPayloadRoundTrip proves every hand-written payload codec is
// the identity through the rmi payload path: EncodePayload must produce
// a tagged payload, and Decode must reconstruct the envelope exactly.
func TestBinaryPayloadRoundTrip(t *testing.T) {
	for _, p := range binaryPairs() {
		t.Run(p.name, func(t *testing.T) {
			raw := rmi.EncodePayload(p.in)
			if len(raw) == 0 || raw[0] != 0x00 {
				t.Fatalf("binary payload not tagged: % x", raw)
			}
			if err := rmi.Decode(raw, p.out); err != nil {
				t.Fatal(err)
			}
			got := reflect.ValueOf(p.out).Elem().Interface()
			if !reflect.DeepEqual(got, p.in) {
				t.Errorf("round trip mutated envelope:\n in: %#v\nout: %#v", p.in, got)
			}
		})
	}
}

// TestBinaryPayloadGobParity cross-checks every hand-written payload
// codec against Go's reflective encoding/gob, used here only as an
// independent reference (gob never reaches the wire): the envelope sent
// through gob and through its own AppendTo/DecodeFrom must decode to the
// same value field for field.
func TestBinaryPayloadGobParity(t *testing.T) {
	for _, p := range binaryPairs() {
		t.Run(p.name, func(t *testing.T) {
			var viaGob bytes.Buffer
			if err := gob.NewEncoder(&viaGob).Encode(p.in); err != nil {
				t.Fatal(err)
			}
			gobOut := reflect.New(reflect.TypeOf(p.in))
			if err := gob.NewDecoder(&viaGob).Decode(gobOut.Interface()); err != nil {
				t.Fatal(err)
			}
			binOut := reflect.New(reflect.TypeOf(p.in))
			if err := rmi.Decode(rmi.EncodePayload(p.in), binOut.Interface().(rmi.BinaryDecoder)); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(gobOut.Elem().Interface(), binOut.Elem().Interface()) {
				t.Errorf("codecs decode differently:\ngob: %#v\nbin: %#v",
					gobOut.Elem().Interface(), binOut.Elem().Interface())
			}
		})
	}
}

// TestBinaryPayloadTruncationErrors feeds every proper prefix of every
// encoding to the decoder: each must fail cleanly — no panic, no silent
// success on a short buffer.
func TestBinaryPayloadTruncationErrors(t *testing.T) {
	for _, p := range binaryPairs() {
		body := rmi.EncodePayload(p.in)[1:] // strip the payload tag; DecodeFrom sees the body
		dec := p.out
		for cut := 0; cut < len(body); cut++ {
			if err := dec.DecodeFrom(body[:cut]); err == nil {
				// A proper prefix may decode only if the full encoding is
				// empty (FeesReq) — otherwise it must error.
				t.Errorf("%s: decode of %d/%d-byte prefix succeeded", p.name, cut, len(body))
			}
		}
	}
}

// TestBinaryPayloadTrailingBytesError: extra bytes after a valid
// encoding must be rejected, keeping the encoding canonical.
func TestBinaryPayloadTrailingBytesError(t *testing.T) {
	for _, p := range binaryPairs() {
		raw := rmi.EncodePayload(p.in)
		dec := p.out
		if err := dec.DecodeFrom(append(append([]byte(nil), raw[1:]...), 0xEE)); err == nil {
			t.Errorf("%s: decode with a trailing byte succeeded", p.name)
		}
	}
}
