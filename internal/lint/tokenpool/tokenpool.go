// Package tokenpool enforces the lifecycle rules of arena-owned
// SignalTokens documented on (*sim.Context).AcquireSignal: delivery
// releases an arena token into the delivering scheduler's free list, so
// the poster must treat Post as a transfer of ownership. Concretely,
// within a function:
//
//   - a variable holding the result of AcquireSignal must not be used
//     again (read, re-posted, passed anywhere) after it has been passed
//     to Post/PostSignal — the scheduler may already have released and
//     reissued it, so the access races with an unrelated event;
//   - an arena token must not escape the posting function (returned,
//     stored in a field, slice, map or composite literal, or sent on a
//     channel) — retention past delivery is exactly the use-after-free
//     the arena's contract forbids. Hand-built &sim.SignalToken{} values
//     are never released and may be retained freely.
//
// The analysis is lexical within one function: events are ordered by
// source position, which matches execution order for straight-line code
// and is conservative for the rest.
package tokenpool

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"repro/internal/lint"
)

// simPkg is the package whose arena contract we enforce.
const simPkg = "repro/internal/sim"

// Analyzer is the tokenpool check.
var Analyzer = &lint.Analyzer{
	Name: "tokenpool",
	Doc: "forbid retaining or reusing an arena-owned *sim.SignalToken after it has been " +
		"posted (the delivering scheduler releases arena tokens)",
	Run: run,
}

// eventKind orders what can happen to an arena token variable.
type eventKind int

const (
	evAcquire eventKind = iota // var (re)bound to an AcquireSignal result
	evPost                     // var passed to Post/PostSignal
	evUse                      // any other read of the var
	evEscape                   // var stored/returned/sent beyond the function
)

// event is one occurrence, ordered by position.
type event struct {
	pos  token.Pos
	kind eventKind
	obj  types.Object
	how  string // escape description
}

func run(pass *lint.Pass) error {
	pass.Funcs(func(decl *ast.FuncDecl) {
		checkFunc(pass, decl.Body)
	})
	return nil
}

func checkFunc(pass *lint.Pass, body *ast.BlockStmt) {
	owned := findAcquisitions(pass, body)
	if len(owned) == 0 {
		return
	}
	events := collectEvents(pass, body, owned)
	sort.Slice(events, func(i, j int) bool { return events[i].pos < events[j].pos })

	active := map[types.Object]bool{}
	posted := map[types.Object]bool{}
	for _, e := range events {
		switch e.kind {
		case evAcquire:
			active[e.obj], posted[e.obj] = true, false
		case evPost:
			if !active[e.obj] {
				continue
			}
			if posted[e.obj] {
				pass.Reportf(e.pos,
					"arena SignalToken %s posted twice: the first delivery releases it", e.obj.Name())
			}
			posted[e.obj] = true
		case evUse:
			if active[e.obj] && posted[e.obj] {
				pass.Reportf(e.pos,
					"arena SignalToken %s used after Post: the scheduler releases arena tokens on delivery", e.obj.Name())
			}
		case evEscape:
			if active[e.obj] {
				pass.Reportf(e.pos,
					"arena SignalToken %s %s: arena tokens must not outlive their post; hand-build &sim.SignalToken{} for retained tokens", e.obj.Name(), e.how)
			}
		}
	}
}

// findAcquisitions returns the objects of variables ever assigned the
// result of (*sim.Context).AcquireSignal within body.
func findAcquisitions(pass *lint.Pass, body *ast.BlockStmt) map[types.Object]bool {
	out := map[types.Object]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		assign, ok := n.(*ast.AssignStmt)
		if !ok || len(assign.Lhs) != 1 || len(assign.Rhs) != 1 {
			return true
		}
		if !isAcquireCall(pass, assign.Rhs[0]) {
			return true
		}
		if id, ok := assign.Lhs[0].(*ast.Ident); ok {
			if obj := identObj(pass, id); obj != nil {
				out[obj] = true
			}
		}
		return true
	})
	return out
}

// isAcquireCall reports whether e is a call of (*sim.Context).AcquireSignal.
func isAcquireCall(pass *lint.Pass, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	fn := lint.Callee(pass.TypesInfo, call)
	if fn == nil || fn.Name() != "AcquireSignal" {
		return false
	}
	recvPkg, recvType := lint.ReceiverNamed(fn)
	return recvPkg == simPkg && recvType == "Context"
}

// identObj resolves an identifier to its object (use or definition).
func identObj(pass *lint.Pass, id *ast.Ident) types.Object {
	if obj := pass.TypesInfo.Uses[id]; obj != nil {
		return obj
	}
	return pass.TypesInfo.Defs[id]
}

// collectEvents walks body and records every touch of an arena token variable,
// classifying the context it appears in.
func collectEvents(pass *lint.Pass, body *ast.BlockStmt, owned map[types.Object]bool) []event {
	var events []event
	// consumed marks identifiers already claimed by a structured event so
	// the generic ident walk does not double-report them.
	consumed := map[*ast.Ident]bool{}
	ownedIdent := func(e ast.Expr) (*ast.Ident, types.Object) {
		id, ok := ast.Unparen(e).(*ast.Ident)
		if !ok {
			return nil, nil
		}
		obj := identObj(pass, id)
		if obj == nil || !owned[obj] {
			return nil, nil
		}
		return id, obj
	}

	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				if len(n.Lhs) != len(n.Rhs) {
					break
				}
				// Re-acquisition rebinds the variable.
				if isAcquireCall(pass, rhs) {
					if id, ok := n.Lhs[i].(*ast.Ident); ok {
						if obj := identObj(pass, id); obj != nil {
							consumed[id] = true
							events = append(events, event{pos: n.Pos(), kind: evAcquire, obj: obj})
						}
					}
					continue
				}
				id, obj := ownedIdent(rhs)
				if id == nil {
					continue
				}
				switch lhs := ast.Unparen(n.Lhs[i]).(type) {
				case *ast.SelectorExpr, *ast.IndexExpr:
					consumed[id] = true
					events = append(events, event{pos: id.Pos(), kind: evEscape, obj: obj,
						how: "stored in a field or container element"})
				case *ast.Ident:
					// Aliasing: the alias inherits arena semantics.
					if aliasObj := identObj(pass, lhs); aliasObj != nil {
						owned[aliasObj] = true
						consumed[id] = true
						events = append(events, event{pos: id.Pos(), kind: evUse, obj: obj})
						events = append(events, event{pos: id.Pos() + 1, kind: evAcquire, obj: aliasObj})
					}
				}
			}
		case *ast.CallExpr:
			if isPostCall(pass, n) {
				for _, arg := range n.Args {
					if id, obj := ownedIdent(arg); id != nil {
						consumed[id] = true
						events = append(events, event{pos: id.Pos(), kind: evPost, obj: obj})
					}
				}
			}
		case *ast.ReturnStmt:
			for _, r := range n.Results {
				if id, obj := ownedIdent(r); id != nil {
					consumed[id] = true
					events = append(events, event{pos: id.Pos(), kind: evEscape, obj: obj,
						how: "returned"})
				}
			}
		case *ast.SendStmt:
			if id, obj := ownedIdent(n.Value); id != nil {
				consumed[id] = true
				events = append(events, event{pos: id.Pos(), kind: evEscape, obj: obj,
					how: "sent on a channel"})
			}
		case *ast.CompositeLit:
			for _, elt := range n.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					elt = kv.Value
				}
				if id, obj := ownedIdent(elt); id != nil {
					consumed[id] = true
					events = append(events, event{pos: id.Pos(), kind: evEscape, obj: obj,
						how: "stored in a composite literal"})
				}
			}
		case *ast.Ident:
			if consumed[n] {
				return true
			}
			if obj := identObj(pass, n); obj != nil && owned[obj] && pass.TypesInfo.Uses[n] != nil {
				events = append(events, event{pos: n.Pos(), kind: evUse, obj: obj})
			}
		}
		return true
	})
	return events
}

// isPostCall reports whether call is a Post or PostSignal method call
// (scheduler or context — any receiver named Post* that takes a token).
func isPostCall(pass *lint.Pass, call *ast.CallExpr) bool {
	fn := lint.Callee(pass.TypesInfo, call)
	if fn == nil {
		return false
	}
	if fn.Name() != "Post" && fn.Name() != "PostSignal" {
		return false
	}
	return lint.FuncPkgPath(fn) == simPkg
}
