// Package lockheldrmi forbids calling into the RMI layer while holding a
// sync.Mutex or sync.RWMutex. An RMI call blocks for a full network
// round trip — and with PR 1's resilience stack, potentially a whole
// backoff-retry-reconnect ladder lasting seconds — so performing one
// under a lock turns a latency hazard into a system-wide stall (every
// goroutine touching the lock queues behind the network) and, when the
// RMI completion path takes the same lock, a deadlock.
//
// Two call surfaces count as RMI: internal/rmi's client side
// (rmi.Client and rmi.Pending methods, plus Dial/NewClient, which
// perform the handshake) and all of internal/iplib, whose typed stubs
// are documented as thin envelopes around internal/rmi — each method is
// a round trip. internal/rmi's server-side types (Session, Server) and
// the EncodePayload/Decode helpers are local and exempt.
//
// The analysis is lexical within one function: Lock/RLock marks the
// mutex held, Unlock/RUnlock releases it, and a deferred unlock keeps it
// held to the end of the function. Functions whose name ends in "Locked"
// follow the codebase's convention that the caller holds a lock, so any
// direct RMI call inside them is flagged too. Nested function literals
// run at an unknown later time and are analyzed with a fresh lock state.
package lockheldrmi

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"repro/internal/lint"
)

// rmiPackages are the call surfaces treated as network round trips.
var rmiPackages = []string{
	"repro/internal/rmi",
	"repro/internal/iplib",
}

// rmiPkg is the transport package; only its client side blocks on the
// network.
const rmiPkg = "repro/internal/rmi"

// rmiClientTypes are the internal/rmi receiver types whose methods are
// round trips (or block on one, as Pending.Err does).
var rmiClientTypes = map[string]bool{"Client": true, "Pending": true}

// rmiClientFuncs are the package-level internal/rmi functions that
// perform a network handshake.
var rmiClientFuncs = map[string]bool{"Dial": true, "NewClient": true}

// rmiNonBlockingClient are rmi.Client methods that only read local,
// mutex-guarded state — never the wire. With the multiplexed transport
// these are the sanctioned observability accessors (session identity,
// liveness, reconnect count, pipeline high-water mark); holding a caller
// lock across them is fine, and callers legitimately consult them inside
// their own critical sections.
var rmiNonBlockingClient = map[string]bool{
	"Session":      true,
	"Dead":         true,
	"Reconnects":   true,
	"PeakInFlight": true,
}

// isRMICall reports whether fn blocks on a network round trip.
func isRMICall(fn *types.Func) bool {
	pkg := lint.FuncPkgPath(fn)
	if pkg == "repro/internal/iplib" {
		return true
	}
	if pkg != rmiPkg {
		return false
	}
	if _, typeName := lint.ReceiverNamed(fn); typeName != "" {
		if typeName == "Client" && rmiNonBlockingClient[fn.Name()] {
			return false
		}
		return rmiClientTypes[typeName]
	}
	return rmiClientFuncs[fn.Name()]
}

// Analyzer is the lockheld-rmi check.
var Analyzer = &lint.Analyzer{
	Name: "lockheld-rmi",
	Doc: "forbid RMI calls (internal/rmi, internal/iplib) while a sync.Mutex/RWMutex " +
		"is held: a network round trip under a lock stalls every contender and " +
		"risks deadlock with the retry/reconnect machinery",
	Run: run,
}

func run(pass *lint.Pass) error {
	// The RMI packages implement the transport; their own internal
	// locking is the serialization the protocol requires.
	if lint.PathMatchesAny(pass.Pkg.Path(), rmiPackages) {
		return nil
	}
	pass.Funcs(func(decl *ast.FuncDecl) {
		checkFunc(pass, decl.Name.Name, decl.Body)
	})
	return nil
}

// evKind is one lock-relevant occurrence in a function body.
type evKind int

const (
	evLock evKind = iota
	evUnlock
	evDeferUnlock
	evRMICall
)

type event struct {
	pos  token.Pos
	kind evKind
	key  string // rendered mutex receiver, e.g. "e.mu"
	desc string // rendered RMI callee, for the message
}

// checkFunc simulates lock state through body in source order. Nested
// function literals are queued and analyzed separately (their bodies run
// later, without the enclosing lexical locks — a goroutine spawned under
// a lock does not hold it).
func checkFunc(pass *lint.Pass, name string, body *ast.BlockStmt) {
	var events []event
	var nested []*ast.FuncLit

	var walk func(n ast.Node, inDefer bool)
	walk = func(n ast.Node, inDefer bool) {
		ast.Inspect(n, func(m ast.Node) bool {
			switch m := m.(type) {
			case *ast.FuncLit:
				nested = append(nested, m)
				return false
			case *ast.DeferStmt:
				walk(m.Call, true)
				return false
			case *ast.CallExpr:
				fn := lint.Callee(pass.TypesInfo, m)
				if fn == nil {
					return true
				}
				if key, kind, ok := mutexOp(pass, m, fn); ok {
					if kind == evUnlock && inDefer {
						kind = evDeferUnlock
					}
					events = append(events, event{pos: m.Pos(), kind: kind, key: key})
					return true
				}
				if isRMICall(fn) {
					events = append(events, event{pos: m.Pos(), kind: evRMICall,
						desc: calleeLabel(fn)})
				}
			}
			return true
		})
	}
	walk(body, false)

	sort.Slice(events, func(i, j int) bool { return events[i].pos < events[j].pos })

	held := map[string]bool{}
	// The *Locked suffix convention: the caller holds a lock for the
	// whole body.
	convention := strings.HasSuffix(name, "Locked")
	for _, e := range events {
		switch e.kind {
		case evLock, evDeferUnlock:
			// A deferred unlock means the lock stays held from here to
			// every return — for call-site purposes, identical to held.
			if e.kind == evLock {
				held[e.key] = true
			}
		case evUnlock:
			delete(held, e.key)
		case evRMICall:
			if len(held) > 0 {
				pass.Reportf(e.pos,
					"RMI call %s while mutex %s is held: a network round trip (plus retries and reconnects) under a lock stalls every contender", e.desc, anyKey(held))
			} else if convention {
				pass.Reportf(e.pos,
					"RMI call %s inside %s: the *Locked naming convention means the caller holds a mutex across this network round trip", e.desc, name)
			}
		}
	}

	for _, fl := range nested {
		checkFunc(pass, name+".func", fl.Body)
	}
}

// mutexOp classifies a call as a sync.Mutex/RWMutex lock or unlock and
// returns a stable key for the receiver expression.
func mutexOp(pass *lint.Pass, call *ast.CallExpr, fn *types.Func) (key string, kind evKind, ok bool) {
	pkgPath, typeName := lint.ReceiverNamed(fn)
	if pkgPath != "sync" || (typeName != "Mutex" && typeName != "RWMutex") {
		return "", 0, false
	}
	switch fn.Name() {
	case "Lock", "RLock":
		kind = evLock
	case "Unlock", "RUnlock":
		kind = evUnlock
	default:
		return "", 0, false
	}
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", 0, false
	}
	return types.ExprString(sel.X), kind, true
}

// calleeLabel renders the flagged callee for the diagnostic.
func calleeLabel(fn *types.Func) string {
	if _, typeName := lint.ReceiverNamed(fn); typeName != "" {
		return typeName + "." + fn.Name()
	}
	return fn.Name()
}

// anyKey returns one held mutex key for the message (deterministically:
// the smallest).
func anyKey(held map[string]bool) string {
	keys := make([]string, 0, len(held))
	for k := range held {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys[0]
}
