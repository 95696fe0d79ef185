package security

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/signal"
)

func TestSandboxDefaultPolicy(t *testing.T) {
	var log AuditLog
	s := NewSandbox("MULT.stub", &log)
	if err := s.Require(CapProviderChannel); err != nil {
		t.Errorf("provider channel denied: %v", err)
	}
	for _, c := range []Capability{CapFileRead, CapFileWrite, CapOtherNetwork} {
		err := s.Require(c)
		var d *Denied
		if !errors.As(err, &d) {
			t.Errorf("capability %v not denied", c)
			continue
		}
		if d.Principal != "MULT.stub" || d.Cap != c {
			t.Errorf("denial fields wrong: %+v", d)
		}
		if !strings.Contains(d.Error(), c.String()) {
			t.Errorf("denial message %q lacks capability name", d.Error())
		}
	}
	if len(log.Entries()) != 4 {
		t.Errorf("audit entries = %d, want 4", len(log.Entries()))
	}
	if len(log.Denials()) != 3 {
		t.Errorf("denials = %d, want 3", len(log.Denials()))
	}
}

func TestSandboxGrantRevoke(t *testing.T) {
	s := NewSandbox("p", nil)
	if err := s.Require(CapFileRead); err == nil {
		t.Fatal("file read allowed by default")
	}
	s.Grant(CapFileRead)
	if err := s.Require(CapFileRead); err != nil {
		t.Fatalf("granted capability denied: %v", err)
	}
	s.Revoke(CapFileRead)
	if err := s.Require(CapFileRead); err == nil {
		t.Fatal("revoked capability allowed")
	}
}

func TestCapabilityString(t *testing.T) {
	if CapFileWrite.String() != "file-write" {
		t.Error("capability name wrong")
	}
	if Capability(99).String() == "" {
		t.Error("unknown capability name empty")
	}
}

func TestKeyTagVerify(t *testing.T) {
	k, err := NewKey()
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("challenge-123")
	tag := k.Tag(msg)
	if !k.Verify(msg, tag) {
		t.Error("valid tag rejected")
	}
	if k.Verify([]byte("other"), tag) {
		t.Error("tag accepted for wrong message")
	}
	flip := byte('0')
	if tag[len(tag)-1] == flip {
		flip = '1'
	}
	if k.Verify(msg, tag[:len(tag)-1]+string(flip)) {
		t.Error("tampered tag accepted")
	}
	if k.Verify(msg, "not-hex!") {
		t.Error("malformed tag accepted")
	}
	k2, _ := NewKey()
	if k2.Verify(msg, tag) {
		t.Error("tag accepted under different key")
	}
}

func TestMarshalPolicyAllowsPortValues(t *testing.T) {
	p := MarshalPolicy{}
	good := []any{
		nil,
		signal.B1,
		signal.BitValue{B: signal.B0},
		signal.WordFromUint64(7, 8),
		signal.WordValue{W: signal.WordFromUint64(7, 8)},
		[]signal.Bit{signal.B0, signal.B1},
		[][]signal.Bit{{signal.B0}, {signal.B1}},
		[]signal.Word{signal.WordFromUint64(1, 4)},
		[]uint64{1, 2, 3},
		[]float64{1.5},
		[]string{"I3sa0"},
		"estimate.power",
		42,
		3.14,
		true,
		[]any{uint64(1), "x"},
	}
	for _, v := range good {
		if err := p.CheckOutbound(v); err != nil {
			t.Errorf("port-value payload %T rejected: %v", v, err)
		}
	}
}

type designSecret struct{ Netlist any }

func TestMarshalPolicyRejectsStructures(t *testing.T) {
	p := MarshalPolicy{}
	bad := []any{
		designSecret{},
		func() {},
		make(chan int),
		map[string]int{"a": 1},
		[]any{uint64(1), designSecret{}},
	}
	for _, v := range bad {
		if err := p.CheckOutbound(v); err == nil {
			t.Errorf("non-port-value payload %T accepted", v)
		}
	}
}

func TestMarshalPolicyBudget(t *testing.T) {
	p := MarshalPolicy{MaxValues: 10}
	if err := p.CheckOutbound(make([]signal.Bit, 10)); err != nil {
		t.Errorf("payload at budget rejected: %v", err)
	}
	if err := p.CheckOutbound(make([]signal.Bit, 11)); err == nil {
		t.Error("payload over budget accepted")
	}
	big := [][]signal.Bit{make([]signal.Bit, 6), make([]signal.Bit, 6)}
	if err := p.CheckOutbound(big); err == nil {
		t.Error("nested payload over budget accepted")
	}
}
