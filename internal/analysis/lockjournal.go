package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// LockJournal pins the durability contract structurally: every append to
// the engine's journal sink (Options.Journal) happens (a) with the engine
// mutation mutex held and (b) before the state mutation it describes. PR 5
// established "journal order == log order" — replaying the journal must
// rebuild bit-identical state, which only holds if appends are serialized
// by the same lock that serializes mutations and if a failed append can
// still abort the mutation. A journal call outside the lock can interleave
// with a concurrent mutation (journal order diverges from log order); a
// mutation before the append means a failed append leaves durable and
// in-memory state disagreeing.
//
// The check is lexical and per-function, which matches how the engine is
// written (Commit and AddImages take the lock, append, then mutate): it
// tracks Lock/Unlock calls on sync mutexes and flags journal-sink calls
// made at lock depth zero, or preceded — inside the current critical
// section — by a write to the receiver's state (field assignment, ++/--,
// or a mutating method call such as .Store/.Add/.Grow*/.Set*/.Add*).
var LockJournal = &Analyzer{
	Name:     "lockjournal",
	Doc:      "journal-sink appends must hold the mutation mutex and precede the state mutation",
	Contract: "journal order == log order; a failed append fails the mutation (PR 5, pinned by the crash-recovery CI job)",
	Applies:  nil, // fires only on Journal-field calls, wherever they appear
	Run:      runLockJournal,
}

// mutatorPrefixes are method-name prefixes treated as state mutation when
// called on the journal owner's fields.
var mutatorPrefixes = []string{
	"Store", "Swap", "CompareAndSwap", "Add", "Grow", "Set", "Append",
	"Delete", "Remove", "Push", "Reset", "Clear",
}

func runLockJournal(p *Pass) error {
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkJournalFunc(p, fd.Body)
		}
	}
	return nil
}

type journalEvent struct {
	pos  token.Pos
	kind string // "lock", "unlock", "mutate", "journal"
	node *ast.CallExpr
}

func checkJournalFunc(p *Pass, body *ast.BlockStmt) {
	// Pass A: find journal-sink calls and the root objects they hang off
	// (e.g. the `e` in e.opts.Journal.AppendSession). No journal calls,
	// nothing to check.
	roots := make(map[types.Object]bool)
	var journals []*ast.CallExpr
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || !isJournalCall(p, call) {
			return true
		}
		journals = append(journals, call)
		if root := chainRoot(p, call.Fun); root != nil {
			roots[root] = true
		}
		return true
	})
	if len(journals) == 0 {
		return
	}

	// Pass B: collect lock/unlock/mutation events in source order.
	// Deferred calls run at return, after every journal append in the
	// body, so they never count as events.
	deferred := make(map[*ast.CallExpr]bool)
	var events []journalEvent
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.DeferStmt:
			deferred[n.Call] = true
		case *ast.CallExpr:
			if deferred[n] {
				return true
			}
			switch {
			case isJournalCall(p, n):
				events = append(events, journalEvent{n.Pos(), "journal", n})
			case isMutexCall(p, n, "Lock"):
				events = append(events, journalEvent{n.Pos(), "lock", n})
			case isMutexCall(p, n, "Unlock"):
				events = append(events, journalEvent{n.Pos(), "unlock", n})
			case isMutatorCall(p, n, roots):
				events = append(events, journalEvent{n.Pos(), "mutate", n})
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if sel, ok := lhs.(*ast.SelectorExpr); ok && roots[chainRoot(p, sel)] {
					events = append(events, journalEvent{n.Pos(), "mutate", nil})
					break
				}
			}
		case *ast.IncDecStmt:
			if sel, ok := n.X.(*ast.SelectorExpr); ok && roots[chainRoot(p, sel)] {
				events = append(events, journalEvent{n.Pos(), "mutate", nil})
			}
		}
		return true
	})
	sort.Slice(events, func(i, j int) bool { return events[i].pos < events[j].pos })

	// Evaluate each journal call against the lexical lock state.
	depth := 0
	mutatedSince := false
	for _, ev := range events {
		switch ev.kind {
		case "lock":
			depth++
			mutatedSince = false
		case "unlock":
			depth--
		case "mutate":
			mutatedSince = true
		case "journal":
			switch {
			case depth <= 0:
				p.Reportf(ev.pos, "journal append outside the mutation mutex: journal order can diverge from log order")
			case mutatedSince:
				p.Reportf(ev.pos, "state mutated before this journal append in the critical section: a failed append would leave durable and in-memory state disagreeing")
			}
		}
	}
}

// isJournalCall reports whether call invokes the journal sink: a method on
// (or a direct call of) a struct field named "Journal".
func isJournalCall(p *Pass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	// Direct call of a func-typed Journal field: opts.Journal(...).
	if fv := fieldOf(p, sel); fv != nil && fv.Name() == "Journal" {
		return true
	}
	// Method call on the field: e.opts.Journal.AppendSession(...).
	if inner, ok := sel.X.(*ast.SelectorExpr); ok {
		if fv := fieldOf(p, inner); fv != nil && fv.Name() == "Journal" {
			return true
		}
	}
	return false
}

// fieldOf resolves sel to the struct field it selects, or nil.
func fieldOf(p *Pass, sel *ast.SelectorExpr) *types.Var {
	s, ok := p.TypesInfo.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return nil
	}
	v, ok := s.Obj().(*types.Var)
	if !ok {
		return nil
	}
	return v
}

// isMutexCall reports whether call is recv.<method>() on a sync mutex (or
// sync.Locker). RLock/RUnlock deliberately do not count: a read lock does
// not serialize mutations, so a journal append under RLock is still
// outside the mutation lock.
func isMutexCall(p *Pass, call *ast.CallExpr, method string) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != method {
		return false
	}
	obj := p.TypesInfo.Uses[sel.Sel]
	if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false
	}
	return true
}

// isMutatorCall reports whether call is a mutating-named method invoked on
// a field chain rooted at one of the journal owners (excluding the journal
// sink itself, which pass A already classified).
func isMutatorCall(p *Pass, call *ast.CallExpr, roots map[types.Object]bool) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	if !roots[chainRoot(p, sel)] {
		return false
	}
	name := sel.Sel.Name
	for _, prefix := range mutatorPrefixes {
		if strings.HasPrefix(name, prefix) {
			return true
		}
	}
	return false
}

// chainRoot unwraps a selector chain (e.opts.Journal.Append -> e) to the
// object of its root identifier.
func chainRoot(p *Pass, expr ast.Expr) types.Object {
	for {
		switch x := expr.(type) {
		case *ast.SelectorExpr:
			expr = x.X
		case *ast.ParenExpr:
			expr = x.X
		case *ast.Ident:
			return p.TypesInfo.Uses[x]
		default:
			return nil
		}
	}
}
