package main

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/gate"
	"repro/internal/signal"
)

const (
	// faultGates sizes the first IP component of each design; the second
	// gets half as many, so a flattened design has about 400 gates.
	faultGates = 266
	// faultInputs is RandomTwoIPDesign's primary input count; the
	// campaign applies all 2^faultInputs patterns.
	faultInputs = 4
)

type faultCampaign struct {
	seed     int64
	patterns [][]signal.Bit
}

func newFaultCampaign(seed int64) (instance, error) {
	return &faultCampaign{seed: seed, patterns: exhaustivePatterns(faultInputs)}, nil
}

// exhaustivePatterns returns all 2^n patterns of n bits in counting order.
func exhaustivePatterns(n int) [][]signal.Bit {
	out := make([][]signal.Bit, 0, 1<<n)
	for v := 0; v < 1<<n; v++ {
		p := make([]signal.Bit, n)
		for i := range p {
			if v>>i&1 == 1 {
				p[i] = signal.B1
			}
		}
		out = append(out, p)
	}
	return out
}

// designSeed derives op i's design seed from the workload seed
// (splitmix64), so every op gets a fresh design and a seed repeats them.
func designSeed(seed int64, i int) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(i)*0xbf58476d1ce4e5b9 + 0x94d049bb133111eb
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return int64((z ^ z>>31) >> 1)
}

// op runs one virtual fault campaign over a fresh design. Building the
// design and checking the result against the flat reference are not
// timed.
func (f *faultCampaign) op(m *opMeter) error {
	d, err := fault.RandomTwoIPDesign(faultGates, designSeed(f.seed, m.op))
	if err != nil {
		return err
	}
	vs := fault.NewVirtualSimulator(d.Circuit, d.Inputs, d.Outputs)
	m.begin()
	camp := m.span("fault.campaign")
	for _, h := range d.Hosts {
		svc := h.Service
		if m.traced() {
			svc = timedService{svc: svc, tr: m.tr, op: m.op, parent: camp.id()}
		}
		vs.AddHost(h.Module, svc)
	}
	res, err := vs.Run(f.patterns)
	camp.close()
	m.end()
	if err != nil {
		return err
	}
	m.attr("fault.table_calls", float64(vs.Stats.DetectionTableCalls))
	m.attr("fault.injection_runs", float64(vs.Stats.InjectionRuns))
	m.attr("fault.fault_free_runs", float64(vs.Stats.FaultFreeRuns))
	return checkAgainstFlat(d, f.patterns, res)
}

// checkAgainstFlat is the campaign's oracle: serial fault simulation of
// the flattened design, over the same faults, must detect exactly the
// faults the virtual campaign detected, each first at the same pattern.
func checkAgainstFlat(d *fault.IPDesign, patterns [][]signal.Bit, vres *fault.Result) error {
	names, err := d.NewVirtual().BuildFaultList()
	if err != nil {
		return err
	}
	flat := make([]gate.Fault, len(names))
	for i, q := range names {
		if flat[i], err = d.FlatFaultFor(q); err != nil {
			return err
		}
	}
	fres, err := fault.SerialSimulateFaults(d.Flat, flat, patterns)
	if err != nil {
		return err
	}
	if len(vres.Detected) != len(fres.Detected) {
		return fmt.Errorf("virtual campaign detected %d faults, flat reference %d", len(vres.Detected), len(fres.Detected))
	}
	for q, vp := range vres.Detected {
		fp, ok := fres.Detected[q]
		if !ok || fp != vp {
			return fmt.Errorf("fault %s: virtual first detection at pattern %d, flat reference %d (detected %v)", q, vp, fp, ok)
		}
	}
	return nil
}

func (f *faultCampaign) finish() error { return nil }
func (f *faultCampaign) close() error  { return nil }

// timedService records each testability query of a campaign as a span.
type timedService struct {
	svc    fault.TestabilityService
	tr     *tracer
	op     int
	parent int64
}

func (t timedService) FaultList() ([]string, error) {
	s := t.tr.open(t.op, t.parent, "fault.faultlist")
	defer s.close()
	return t.svc.FaultList()
}

func (t timedService) DetectionTable(inputs []signal.Bit) (*fault.DetectionTable, error) {
	s := t.tr.open(t.op, t.parent, "fault.table")
	defer s.close()
	return t.svc.DetectionTable(inputs)
}
