package iplib

import (
	"errors"
	"testing"

	"repro/internal/rmi"
	"repro/internal/signal"
)

func TestIdempotencyTable(t *testing.T) {
	tests := []struct {
		method string
		want   bool
	}{
		{MethodCatalogue, true},
		{MethodFees, true},
		{MethodNegotiate, true},
		{MethodStatic, true},
		{MethodFaultList, true},
		{MethodFaultTable, true},
		{MethodEval, true},
		{MethodPowerBatch, true},
		{MethodTimingBatch, true},
		{MethodBind, false},    // allocates an instance, charges a license
		{MethodTestSet, false}, // sells a priced artifact
		{"ip.unknown", false},  // default-deny for unlisted methods
	}
	for _, tc := range tests {
		if got := Idempotent(tc.method); got != tc.want {
			t.Errorf("Idempotent(%q) = %v, want %v", tc.method, got, tc.want)
		}
	}
}

func TestJournalRecordsOnlySessionState(t *testing.T) {
	j := &sessionJournal{}
	j.record(MethodBind, BindReq{Component: "X", Width: 4}, &BindResp{Instance: 1})
	j.record(MethodPowerBatch, PowerBatchReq{Instance: 1}, &PowerBatchResp{})
	j.record(MethodTimingBatch, TimingBatchReq{Instance: 1}, &TimingBatchResp{})
	// Stateless and read-only calls stay out of the journal.
	j.record(MethodCatalogue, CatalogueReq{}, &CatalogueResp{})
	j.record(MethodEval, EvalReq{Instance: 1}, &EvalResp{})
	j.record(MethodFees, FeesReq{}, &FeesResp{})
	if got := j.Entries(); got != 3 {
		t.Errorf("journal entries = %d, want 3 (bind + two batches)", got)
	}
}

func TestJournalReplayPreservesOrderAndVerifiesBindIDs(t *testing.T) {
	j := &sessionJournal{}
	j.record(MethodBind, BindReq{Component: "X", Width: 4}, &BindResp{Instance: 1})
	j.record(MethodPowerBatch, PowerBatchReq{Instance: 1, Patterns: [][]signal.Bit{{signal.B1}}}, &PowerBatchResp{})
	j.record(MethodBind, BindReq{Component: "Y", Width: 8}, &BindResp{Instance: 2})

	var order []string
	nextInstance := uint64(0)
	err := j.replay(func(method string, args rmi.Envelope, reply rmi.BinaryDecoder) error {
		order = append(order, method)
		if r, ok := reply.(*BindResp); ok {
			// A fresh session hands out instance IDs from 1 again, so an
			// in-order replay reproduces the original handles.
			nextInstance++
			r.Instance = nextInstance
		}
		return nil
	})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	want := []string{MethodBind, MethodPowerBatch, MethodBind}
	if len(order) != len(want) {
		t.Fatalf("replayed %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("replay order %v, want %v", order, want)
		}
	}

	// A replayed bind returning a different handle must abort the replay:
	// outstanding BoundInstance stubs would silently point at the wrong
	// provider-side instance.
	err = j.replay(func(method string, args rmi.Envelope, reply rmi.BinaryDecoder) error {
		if r, ok := reply.(*BindResp); ok {
			r.Instance = 99
		}
		return nil
	})
	if err == nil {
		t.Fatal("replay accepted a bind that returned a different instance ID")
	}

	// A failing call aborts too.
	boom := errors.New("boom")
	err = j.replay(func(method string, args rmi.Envelope, reply rmi.BinaryDecoder) error { return boom })
	if !errors.Is(err, boom) {
		t.Errorf("replay err = %v, want the call error", err)
	}
}

func TestEnableRecoveryArmsHooksOnce(t *testing.T) {
	c := fakeProvider(t)
	if c.JournalLen() != 0 {
		t.Fatal("journal exists before EnableRecovery")
	}
	c.EnableRecovery()
	if c.RPC.Idempotent == nil || c.RPC.Recorder == nil || c.RPC.OnReconnect == nil {
		t.Fatal("EnableRecovery left RPC hooks unset")
	}
	j := c.journal
	c.EnableRecovery()
	if c.journal != j {
		t.Error("second EnableRecovery replaced the journal")
	}

	// Live calls through the stub layer land in the journal in call order.
	inst, err := c.Bind("Thing", 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inst.PowerBatch([][]signal.Bit{{signal.B0, signal.B1}}, false); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Catalogue(); err != nil {
		t.Fatal(err)
	}
	if got := c.JournalLen(); got != 2 {
		t.Errorf("journal length = %d, want 2 (bind + batch; catalogue not journaled)", got)
	}
}
