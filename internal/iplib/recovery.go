package iplib

import (
	"fmt"
	"sync"

	"repro/internal/rmi"
)

// Idempotent reports whether an RMI method of the IP protocol may safely
// be re-invoked after an ambiguous transport failure (the request may or
// may not have executed server-side). The rules per method:
//
//   - Pure reads (catalogue, fees, negotiate, static, fault.list) are
//     idempotent.
//   - Deterministic computations (eval, power.batch, timing.batch,
//     fault.table) are idempotent for results; a duplicate execution can
//     double-bill usage fees, which providers tolerate (per-pattern fees
//     are small) — at-most-once billing is not guaranteed under retry.
//   - bind mutates session state (allocates an instance handle, charges
//     a license); testset sells a priced artifact. Neither is retried
//     blindly; bind is re-established only by deliberate session replay.
func Idempotent(method string) bool {
	switch method {
	case MethodCatalogue, MethodFees, MethodNegotiate, MethodStatic,
		MethodFaultList, MethodFaultTable, MethodEval,
		MethodPowerBatch, MethodTimingBatch:
		return true
	}
	return false
}

// journalEntry is one replayable call of the session journal.
type journalEntry struct {
	method string
	args   rmi.Envelope
	// boundID is, for bind entries, the instance handle the original
	// call returned; the replayed bind must reproduce it exactly for
	// outstanding BoundInstance stubs to stay valid.
	boundID uint64
}

// sessionJournal records, in exact wire order, the calls that establish
// or advance provider-side session state: binds (instance handles) and
// estimation batches (the provider's gate-level simulators are stateful
// — each pattern's power depends on the previous pattern, so recreating
// an instance is not enough; its pattern history must be re-driven for
// post-reconnect results to match a fault-free run bit for bit).
type sessionJournal struct {
	mu      sync.Mutex
	entries []journalEntry
}

// record observes one successful call (it runs under the RPC connection
// lock, so append order is wire order) and journals it if it affects
// session state.
func (j *sessionJournal) record(method string, args rmi.Envelope, reply rmi.BinaryDecoder) {
	var e journalEntry
	switch method {
	case MethodBind:
		resp, ok := reply.(*BindResp)
		if !ok {
			return
		}
		e = journalEntry{method: method, args: args, boundID: resp.Instance}
	case MethodPowerBatch, MethodTimingBatch:
		e = journalEntry{method: method, args: args}
	default:
		return
	}
	j.mu.Lock()
	j.entries = append(j.entries, e)
	j.mu.Unlock()
}

// replay re-establishes the session on a fresh connection by re-issuing
// every journaled call in original order. Instance handles are
// session-scoped counters, so replaying binds in order reproduces the
// original IDs; replaying batches re-drives the simulators through the
// same pattern history. Any failure aborts the replay — the transport
// layer treats it as a failed reconnect and backs off.
func (j *sessionJournal) replay(do func(method string, args rmi.Envelope, reply rmi.BinaryDecoder) error) error {
	j.mu.Lock()
	entries := append([]journalEntry(nil), j.entries...)
	j.mu.Unlock()
	for _, e := range entries {
		switch e.method {
		case MethodBind:
			var resp BindResp
			if err := do(e.method, e.args, &resp); err != nil {
				return err
			}
			if resp.Instance != e.boundID {
				return fmt.Errorf("iplib: replayed bind returned instance %d, original was %d", resp.Instance, e.boundID)
			}
		case MethodPowerBatch:
			var resp PowerBatchResp
			if err := do(e.method, e.args, &resp); err != nil {
				return err
			}
		case MethodTimingBatch:
			var resp TimingBatchResp
			if err := do(e.method, e.args, &resp); err != nil {
				return err
			}
		}
	}
	return nil
}

// Entries returns how many calls the journal holds (for tests and
// observability).
func (j *sessionJournal) Entries() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.entries)
}

// EnableRecovery arms transparent session re-establishment on the
// underlying RPC client: the protocol's idempotency table gates retry,
// and a session journal replays binds and estimation batches after every
// automatic reconnect, so a provider connection killed mid-simulation
// heals with results identical to a fault-free run. The replayed session
// is billed afresh by the provider (fees restart with the new session).
func (c *IPClient) EnableRecovery() {
	if c.journal != nil {
		return
	}
	j := &sessionJournal{}
	c.journal = j
	c.RPC.Idempotent = Idempotent
	c.RPC.Recorder = j.record
	c.RPC.OnReconnect = j.replay
}

// JournalLen reports the size of the recovery journal (zero when
// recovery is disabled).
func (c *IPClient) JournalLen() int {
	if c.journal == nil {
		return 0
	}
	return c.journal.Entries()
}
