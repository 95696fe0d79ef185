package iplib

import (
	"fmt"

	"repro/internal/wire"
)

// Hand-written wire-format-v1 payload codecs (DESIGN.md §12) for every
// protocol envelope: the batch traffic Table 2 measures (power/timing
// pattern batches), per-call evaluation, the fault-protocol envelopes,
// and the setup envelopes (catalogue, bind, negotiate). Each AppendTo
// appends the struct's fields in declaration order using the primitives
// of internal/wire; each DecodeFrom consumes its input exactly and
// validates every length prefix — payload bytes come off the network.
//
// These methods implement rmi.BinaryAppender and rmi.BinaryDecoder,
// which every envelope crossing the IP boundary must: they are the only
// payload encoding rmi speaks.

// AppendTo implements rmi.BinaryAppender.
//
//gocad:noalloc
func (r EvalReq) AppendTo(b []byte) []byte {
	b = wire.AppendUvarint(b, r.Instance)
	return wire.AppendBits(b, r.Inputs)
}

// DecodeFrom implements rmi.BinaryDecoder.
func (r *EvalReq) DecodeFrom(buf []byte) error {
	var err error
	*r = EvalReq{}
	if r.Instance, buf, err = wire.Uvarint(buf); err != nil {
		return fmt.Errorf("iplib: EvalReq instance: %w", err)
	}
	if r.Inputs, buf, err = wire.Bits(buf); err != nil {
		return fmt.Errorf("iplib: EvalReq inputs: %w", err)
	}
	return trailing("EvalReq", buf)
}

// AppendTo implements rmi.BinaryAppender.
//
//gocad:noalloc
func (r EvalResp) AppendTo(b []byte) []byte {
	return wire.AppendBits(b, r.Outputs)
}

// DecodeFrom implements rmi.BinaryDecoder.
func (r *EvalResp) DecodeFrom(buf []byte) error {
	var err error
	*r = EvalResp{}
	if r.Outputs, buf, err = wire.Bits(buf); err != nil {
		return fmt.Errorf("iplib: EvalResp outputs: %w", err)
	}
	return trailing("EvalResp", buf)
}

// AppendTo implements rmi.BinaryAppender.
//
//gocad:noalloc
func (r PowerBatchReq) AppendTo(b []byte) []byte {
	b = wire.AppendUvarint(b, r.Instance)
	b = wire.AppendPatterns(b, r.Patterns)
	return wire.AppendBool(b, r.SkipCompute)
}

// DecodeFrom implements rmi.BinaryDecoder.
func (r *PowerBatchReq) DecodeFrom(buf []byte) error {
	var err error
	*r = PowerBatchReq{}
	if r.Instance, buf, err = wire.Uvarint(buf); err != nil {
		return fmt.Errorf("iplib: PowerBatchReq instance: %w", err)
	}
	if r.Patterns, buf, err = wire.Patterns(buf); err != nil {
		return fmt.Errorf("iplib: PowerBatchReq patterns: %w", err)
	}
	if r.SkipCompute, buf, err = wire.Bool(buf); err != nil {
		return fmt.Errorf("iplib: PowerBatchReq skip-compute: %w", err)
	}
	return trailing("PowerBatchReq", buf)
}

// AppendTo implements rmi.BinaryAppender.
//
//gocad:noalloc
func (r PowerBatchResp) AppendTo(b []byte) []byte {
	b = wire.AppendFloat64s(b, r.PowerPerPattern)
	return wire.AppendFloat64(b, r.FeeCents)
}

// DecodeFrom implements rmi.BinaryDecoder.
func (r *PowerBatchResp) DecodeFrom(buf []byte) error {
	var err error
	*r = PowerBatchResp{}
	if r.PowerPerPattern, buf, err = wire.Float64s(buf); err != nil {
		return fmt.Errorf("iplib: PowerBatchResp values: %w", err)
	}
	if r.FeeCents, buf, err = wire.Float64(buf); err != nil {
		return fmt.Errorf("iplib: PowerBatchResp fee: %w", err)
	}
	return trailing("PowerBatchResp", buf)
}

// AppendTo implements rmi.BinaryAppender.
//
//gocad:noalloc
func (r TimingBatchReq) AppendTo(b []byte) []byte {
	b = wire.AppendUvarint(b, r.Instance)
	return wire.AppendPatterns(b, r.Patterns)
}

// DecodeFrom implements rmi.BinaryDecoder.
func (r *TimingBatchReq) DecodeFrom(buf []byte) error {
	var err error
	*r = TimingBatchReq{}
	if r.Instance, buf, err = wire.Uvarint(buf); err != nil {
		return fmt.Errorf("iplib: TimingBatchReq instance: %w", err)
	}
	if r.Patterns, buf, err = wire.Patterns(buf); err != nil {
		return fmt.Errorf("iplib: TimingBatchReq patterns: %w", err)
	}
	return trailing("TimingBatchReq", buf)
}

// AppendTo implements rmi.BinaryAppender.
//
//gocad:noalloc
func (r TimingBatchResp) AppendTo(b []byte) []byte {
	b = wire.AppendFloat64s(b, r.DelayPerPattern)
	return wire.AppendFloat64(b, r.FeeCents)
}

// DecodeFrom implements rmi.BinaryDecoder.
func (r *TimingBatchResp) DecodeFrom(buf []byte) error {
	var err error
	*r = TimingBatchResp{}
	if r.DelayPerPattern, buf, err = wire.Float64s(buf); err != nil {
		return fmt.Errorf("iplib: TimingBatchResp values: %w", err)
	}
	if r.FeeCents, buf, err = wire.Float64(buf); err != nil {
		return fmt.Errorf("iplib: TimingBatchResp fee: %w", err)
	}
	return trailing("TimingBatchResp", buf)
}

// AppendTo implements rmi.BinaryAppender.
func (r StaticReq) AppendTo(b []byte) []byte {
	b = wire.AppendUvarint(b, r.Instance)
	return wire.AppendString(b, r.Param)
}

// DecodeFrom implements rmi.BinaryDecoder.
func (r *StaticReq) DecodeFrom(buf []byte) error {
	var err error
	*r = StaticReq{}
	if r.Instance, buf, err = wire.Uvarint(buf); err != nil {
		return fmt.Errorf("iplib: StaticReq instance: %w", err)
	}
	if r.Param, buf, err = wire.String(buf); err != nil {
		return fmt.Errorf("iplib: StaticReq param: %w", err)
	}
	return trailing("StaticReq", buf)
}

// AppendTo implements rmi.BinaryAppender.
func (r StaticResp) AppendTo(b []byte) []byte {
	return wire.AppendFloat64(b, r.Value)
}

// DecodeFrom implements rmi.BinaryDecoder.
func (r *StaticResp) DecodeFrom(buf []byte) error {
	var err error
	*r = StaticResp{}
	if r.Value, buf, err = wire.Float64(buf); err != nil {
		return fmt.Errorf("iplib: StaticResp value: %w", err)
	}
	return trailing("StaticResp", buf)
}

// AppendTo implements rmi.BinaryAppender.
func (r FaultListReq) AppendTo(b []byte) []byte {
	return wire.AppendUvarint(b, r.Instance)
}

// DecodeFrom implements rmi.BinaryDecoder.
func (r *FaultListReq) DecodeFrom(buf []byte) error {
	var err error
	*r = FaultListReq{}
	if r.Instance, buf, err = wire.Uvarint(buf); err != nil {
		return fmt.Errorf("iplib: FaultListReq instance: %w", err)
	}
	return trailing("FaultListReq", buf)
}

// AppendTo implements rmi.BinaryAppender.
func (r FaultListResp) AppendTo(b []byte) []byte {
	return wire.AppendStrings(b, r.Names)
}

// DecodeFrom implements rmi.BinaryDecoder.
func (r *FaultListResp) DecodeFrom(buf []byte) error {
	var err error
	*r = FaultListResp{}
	if r.Names, buf, err = wire.Strings(buf); err != nil {
		return fmt.Errorf("iplib: FaultListResp names: %w", err)
	}
	return trailing("FaultListResp", buf)
}

// AppendTo implements rmi.BinaryAppender.
//
//gocad:noalloc
func (r FaultTableReq) AppendTo(b []byte) []byte {
	b = wire.AppendUvarint(b, r.Instance)
	return wire.AppendBits(b, r.Inputs)
}

// DecodeFrom implements rmi.BinaryDecoder.
func (r *FaultTableReq) DecodeFrom(buf []byte) error {
	var err error
	*r = FaultTableReq{}
	if r.Instance, buf, err = wire.Uvarint(buf); err != nil {
		return fmt.Errorf("iplib: FaultTableReq instance: %w", err)
	}
	if r.Inputs, buf, err = wire.Bits(buf); err != nil {
		return fmt.Errorf("iplib: FaultTableReq inputs: %w", err)
	}
	return trailing("FaultTableReq", buf)
}

// AppendTo implements rmi.BinaryAppender.
//
//gocad:noalloc
func (r FaultTableResp) AppendTo(b []byte) []byte {
	return r.Table.AppendTo(b)
}

// DecodeFrom implements rmi.BinaryDecoder. The table is the whole
// payload, so its own exact-consumption decode applies directly.
func (r *FaultTableResp) DecodeFrom(buf []byte) error {
	*r = FaultTableResp{}
	return r.Table.DecodeFrom(buf)
}

// AppendTo implements rmi.BinaryAppender.
//
//gocad:noalloc
func (r TestSetReq) AppendTo(b []byte) []byte {
	b = wire.AppendUvarint(b, r.Instance)
	b = wire.AppendVarint(b, int64(r.MaxCandidates))
	return wire.AppendVarint(b, r.Seed)
}

// DecodeFrom implements rmi.BinaryDecoder.
func (r *TestSetReq) DecodeFrom(buf []byte) error {
	var err error
	*r = TestSetReq{}
	if r.Instance, buf, err = wire.Uvarint(buf); err != nil {
		return fmt.Errorf("iplib: TestSetReq instance: %w", err)
	}
	var mc int64
	if mc, buf, err = wire.Varint(buf); err != nil {
		return fmt.Errorf("iplib: TestSetReq max candidates: %w", err)
	}
	r.MaxCandidates = int(mc)
	if r.Seed, buf, err = wire.Varint(buf); err != nil {
		return fmt.Errorf("iplib: TestSetReq seed: %w", err)
	}
	return trailing("TestSetReq", buf)
}

// AppendTo implements rmi.BinaryAppender.
//
//gocad:noalloc
func (r TestSetResp) AppendTo(b []byte) []byte {
	b = wire.AppendPatterns(b, r.Patterns)
	b = wire.AppendFloat64(b, r.Coverage)
	return wire.AppendFloat64(b, r.FeeCents)
}

// DecodeFrom implements rmi.BinaryDecoder.
func (r *TestSetResp) DecodeFrom(buf []byte) error {
	var err error
	*r = TestSetResp{}
	if r.Patterns, buf, err = wire.Patterns(buf); err != nil {
		return fmt.Errorf("iplib: TestSetResp patterns: %w", err)
	}
	if r.Coverage, buf, err = wire.Float64(buf); err != nil {
		return fmt.Errorf("iplib: TestSetResp coverage: %w", err)
	}
	if r.FeeCents, buf, err = wire.Float64(buf); err != nil {
		return fmt.Errorf("iplib: TestSetResp fee: %w", err)
	}
	return trailing("TestSetResp", buf)
}

// AppendTo implements rmi.BinaryAppender.
func (FeesReq) AppendTo(b []byte) []byte { return b }

// DecodeFrom implements rmi.BinaryDecoder.
func (r *FeesReq) DecodeFrom(buf []byte) error {
	*r = FeesReq{}
	return trailing("FeesReq", buf)
}

// AppendTo implements rmi.BinaryAppender.
func (r FeesResp) AppendTo(b []byte) []byte {
	return wire.AppendFloat64(b, r.TotalCents)
}

// DecodeFrom implements rmi.BinaryDecoder.
func (r *FeesResp) DecodeFrom(buf []byte) error {
	var err error
	*r = FeesResp{}
	if r.TotalCents, buf, err = wire.Float64(buf); err != nil {
		return fmt.Errorf("iplib: FeesResp total: %w", err)
	}
	return trailing("FeesResp", buf)
}

// appendOffer / decodeOffer are the shared EstimatorOffer sub-codec
// (used by the negotiate, bind and catalogue envelopes).
func appendOffer(b []byte, o EstimatorOffer) []byte {
	b = wire.AppendString(b, o.Name)
	b = wire.AppendString(b, o.Param)
	b = wire.AppendFloat64(b, o.ErrPct)
	b = wire.AppendFloat64(b, o.CostCents)
	b = wire.AppendFloat64(b, o.CPUTimeMS)
	return wire.AppendBool(b, o.Remote)
}

func decodeOffer(buf []byte) (EstimatorOffer, []byte, error) {
	var o EstimatorOffer
	var err error
	if o.Name, buf, err = wire.String(buf); err != nil {
		return o, buf, err
	}
	if o.Param, buf, err = wire.String(buf); err != nil {
		return o, buf, err
	}
	if o.ErrPct, buf, err = wire.Float64(buf); err != nil {
		return o, buf, err
	}
	if o.CostCents, buf, err = wire.Float64(buf); err != nil {
		return o, buf, err
	}
	if o.CPUTimeMS, buf, err = wire.Float64(buf); err != nil {
		return o, buf, err
	}
	o.Remote, buf, err = wire.Bool(buf)
	return o, buf, err
}

func appendOffers(b []byte, os []EstimatorOffer) []byte {
	b = wire.AppendUvarint(b, uint64(len(os)))
	for _, o := range os {
		b = appendOffer(b, o)
	}
	return b
}

func decodeOffers(buf []byte) ([]EstimatorOffer, []byte, error) {
	n, buf, err := wire.Uvarint(buf)
	if err != nil {
		return nil, buf, err
	}
	// Each offer spans ≥ 28 bytes (two length prefixes, three floats, a
	// bool); bound the prealloc by what the buffer can actually hold.
	if n > uint64(len(buf)/28)+1 {
		return nil, buf, fmt.Errorf("iplib: offer count %d exceeds buffer", n)
	}
	if n == 0 {
		return nil, buf, nil
	}
	out := make([]EstimatorOffer, 0, n)
	for i := uint64(0); i < n; i++ {
		var o EstimatorOffer
		if o, buf, err = decodeOffer(buf); err != nil {
			return nil, buf, err
		}
		out = append(out, o)
	}
	return out, buf, nil
}

// AppendTo implements rmi.BinaryAppender.
func (r NegotiateReq) AppendTo(b []byte) []byte {
	b = wire.AppendString(b, r.Component)
	b = wire.AppendUvarint(b, uint64(len(r.Constraints)))
	for _, c := range r.Constraints {
		b = wire.AppendString(b, c.Param)
		b = wire.AppendFloat64(b, c.MaxErrPct)
		b = wire.AppendFloat64(b, c.MaxCostCents)
		b = wire.AppendBool(b, c.ForbidRemote)
	}
	return b
}

// DecodeFrom implements rmi.BinaryDecoder.
func (r *NegotiateReq) DecodeFrom(buf []byte) error {
	var err error
	*r = NegotiateReq{}
	if r.Component, buf, err = wire.String(buf); err != nil {
		return fmt.Errorf("iplib: NegotiateReq component: %w", err)
	}
	var n uint64
	if n, buf, err = wire.Uvarint(buf); err != nil {
		return fmt.Errorf("iplib: NegotiateReq count: %w", err)
	}
	// A constraint spans ≥ 18 bytes (prefix, two floats, a bool).
	if n > uint64(len(buf)/18)+1 {
		return fmt.Errorf("iplib: NegotiateReq constraint count %d exceeds buffer", n)
	}
	for i := uint64(0); i < n; i++ {
		var c ModelConstraint
		if c.Param, buf, err = wire.String(buf); err != nil {
			return fmt.Errorf("iplib: NegotiateReq constraint param: %w", err)
		}
		if c.MaxErrPct, buf, err = wire.Float64(buf); err != nil {
			return fmt.Errorf("iplib: NegotiateReq constraint err: %w", err)
		}
		if c.MaxCostCents, buf, err = wire.Float64(buf); err != nil {
			return fmt.Errorf("iplib: NegotiateReq constraint cost: %w", err)
		}
		if c.ForbidRemote, buf, err = wire.Bool(buf); err != nil {
			return fmt.Errorf("iplib: NegotiateReq constraint remote: %w", err)
		}
		r.Constraints = append(r.Constraints, c)
	}
	return trailing("NegotiateReq", buf)
}

// AppendTo implements rmi.BinaryAppender.
func (r NegotiateResp) AppendTo(b []byte) []byte {
	b = appendOffers(b, r.Offers)
	return wire.AppendStrings(b, r.Rejections)
}

// DecodeFrom implements rmi.BinaryDecoder.
func (r *NegotiateResp) DecodeFrom(buf []byte) error {
	var err error
	*r = NegotiateResp{}
	if r.Offers, buf, err = decodeOffers(buf); err != nil {
		return fmt.Errorf("iplib: NegotiateResp offers: %w", err)
	}
	if r.Rejections, buf, err = wire.Strings(buf); err != nil {
		return fmt.Errorf("iplib: NegotiateResp rejections: %w", err)
	}
	return trailing("NegotiateResp", buf)
}

// AppendTo implements rmi.BinaryAppender.
func (CatalogueReq) AppendTo(b []byte) []byte { return b }

// DecodeFrom implements rmi.BinaryDecoder.
func (r *CatalogueReq) DecodeFrom(buf []byte) error {
	*r = CatalogueReq{}
	return trailing("CatalogueReq", buf)
}

// AppendTo implements rmi.BinaryAppender.
func (r CatalogueResp) AppendTo(b []byte) []byte {
	b = wire.AppendUvarint(b, uint64(len(r.Specs)))
	for _, s := range r.Specs {
		b = wire.AppendString(b, s.Name)
		b = wire.AppendString(b, s.Description)
		b = wire.AppendVarint(b, int64(s.MinWidth))
		b = wire.AppendVarint(b, int64(s.MaxWidth))
		b = wire.AppendString(b, s.PublicFactory)
		b = appendOffers(b, s.Estimators)
		b = wire.AppendBool(b, s.Testability)
		b = wire.AppendFloat64(b, s.LicenseCents)
	}
	return b
}

// DecodeFrom implements rmi.BinaryDecoder.
func (r *CatalogueResp) DecodeFrom(buf []byte) error {
	var err error
	*r = CatalogueResp{}
	var n uint64
	if n, buf, err = wire.Uvarint(buf); err != nil {
		return fmt.Errorf("iplib: CatalogueResp count: %w", err)
	}
	// A spec spans ≥ 16 bytes (five prefixes, two varints, bool, float).
	if n > uint64(len(buf)/16)+1 {
		return fmt.Errorf("iplib: CatalogueResp spec count %d exceeds buffer", n)
	}
	for i := uint64(0); i < n; i++ {
		var s ComponentSpec
		if s.Name, buf, err = wire.String(buf); err != nil {
			return fmt.Errorf("iplib: CatalogueResp name: %w", err)
		}
		if s.Description, buf, err = wire.String(buf); err != nil {
			return fmt.Errorf("iplib: CatalogueResp description: %w", err)
		}
		var w int64
		if w, buf, err = wire.Varint(buf); err != nil {
			return fmt.Errorf("iplib: CatalogueResp min width: %w", err)
		}
		s.MinWidth = int(w)
		if w, buf, err = wire.Varint(buf); err != nil {
			return fmt.Errorf("iplib: CatalogueResp max width: %w", err)
		}
		s.MaxWidth = int(w)
		if s.PublicFactory, buf, err = wire.String(buf); err != nil {
			return fmt.Errorf("iplib: CatalogueResp factory: %w", err)
		}
		if s.Estimators, buf, err = decodeOffers(buf); err != nil {
			return fmt.Errorf("iplib: CatalogueResp estimators: %w", err)
		}
		if s.Testability, buf, err = wire.Bool(buf); err != nil {
			return fmt.Errorf("iplib: CatalogueResp testability: %w", err)
		}
		if s.LicenseCents, buf, err = wire.Float64(buf); err != nil {
			return fmt.Errorf("iplib: CatalogueResp license: %w", err)
		}
		r.Specs = append(r.Specs, s)
	}
	return trailing("CatalogueResp", buf)
}

// AppendTo implements rmi.BinaryAppender.
func (r BindReq) AppendTo(b []byte) []byte {
	b = wire.AppendString(b, r.Component)
	b = wire.AppendVarint(b, int64(r.Width))
	return wire.AppendStrings(b, r.Models)
}

// DecodeFrom implements rmi.BinaryDecoder.
func (r *BindReq) DecodeFrom(buf []byte) error {
	var err error
	*r = BindReq{}
	if r.Component, buf, err = wire.String(buf); err != nil {
		return fmt.Errorf("iplib: BindReq component: %w", err)
	}
	var w int64
	if w, buf, err = wire.Varint(buf); err != nil {
		return fmt.Errorf("iplib: BindReq width: %w", err)
	}
	r.Width = int(w)
	if r.Models, buf, err = wire.Strings(buf); err != nil {
		return fmt.Errorf("iplib: BindReq models: %w", err)
	}
	return trailing("BindReq", buf)
}

// AppendTo implements rmi.BinaryAppender.
func (r BindResp) AppendTo(b []byte) []byte {
	b = wire.AppendUvarint(b, r.Instance)
	b = wire.AppendFloat64(b, r.LicenseCents)
	return appendOffers(b, r.Enabled)
}

// DecodeFrom implements rmi.BinaryDecoder.
func (r *BindResp) DecodeFrom(buf []byte) error {
	var err error
	*r = BindResp{}
	if r.Instance, buf, err = wire.Uvarint(buf); err != nil {
		return fmt.Errorf("iplib: BindResp instance: %w", err)
	}
	if r.LicenseCents, buf, err = wire.Float64(buf); err != nil {
		return fmt.Errorf("iplib: BindResp license: %w", err)
	}
	if r.Enabled, buf, err = decodeOffers(buf); err != nil {
		return fmt.Errorf("iplib: BindResp enabled: %w", err)
	}
	return trailing("BindResp", buf)
}

// trailing rejects unconsumed payload bytes: every DecodeFrom must eat
// its input exactly or the frame is corrupt.
func trailing(typ string, buf []byte) error {
	if len(buf) != 0 {
		return fmt.Errorf("iplib: %d trailing bytes after %s", len(buf), typ)
	}
	return nil
}
