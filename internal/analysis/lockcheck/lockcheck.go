// Package lockcheck enforces the node/transport locking contract
// (DESIGN.md, "Static contract"): the prose rules PR 5 introduced —
// "callers must not hold n.mu across a network send", "a partition
// lock may be taken under Node.mu, never the reverse", "every manual
// unlock covers every early return" — promoted from comments to
// machine-checked properties over all paths.
//
// The analyzer runs a forward dataflow pass over each function's
// CFG-lite (see analysis.BuildCFG), tracking which sync.Mutex /
// sync.RWMutex expressions may be held at each program point. On that
// state it checks:
//
//   - No call that may perform a network send is reachable while any
//     lock is held. "May send" starts at transport.Transport.Send (and
//     every Send method of the transport package) and propagates
//     through the call graph — within a package by fixed point, across
//     packages via exported facts — so a function three frames above
//     the Send call is flagged too. The loopback transport delivers
//     synchronously on the sending goroutine: a send under Node.mu is
//     not a style problem, it is a deadlock the moment the peer's
//     handler takes its own lock back toward the sender.
//
//   - //lint:requires-unlocked <lock> on a function declaration makes
//     the caller-side contract explicit: calling it while the named
//     lock (rebased through the call's receiver, so "n.mu" in the
//     callee matches "nd.mu" at a call on nd) may be held is an error.
//     The annotation is exported as a fact, so cross-package callers
//     are checked too.
//
//   - No double-lock: acquiring a lock expression that may already be
//     held (either mode — recursive RLock is prohibited by the sync
//     package) is reported, including one call deep through methods
//     that acquire a receiver-rooted lock (n.Crashed() under n.mu).
//
//   - Every acquired lock is released on every return path, either by
//     an explicit unlock before each return or by a deferred unlock;
//     unlocking a lock that is not held, or with the wrong mode
//     (Unlock after RLock), is reported.
//
// Lock identity is the printed source expression of the mutex operand
// ("n.mu", "pt.mu", "t.mu"), the same notion of expression identity
// the divguard analyzer uses for guards. That makes the analysis
// intra-procedurally sound for the module's style (locks are always
// addressed through a stable selector chain) without alias analysis.
// Function literals are analyzed as their own functions with an empty
// entry state: a goroutine body does not inherit the spawner's locks.
// Functions containing goto are skipped (the CFG builder does not
// model it); none exist in the module.
package lockcheck

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/rfhlintutil"
)

// Analyzer is the lockcheck check.
var Analyzer = &analysis.Analyzer{
	Name: "lockcheck",
	Doc:  "flags sends while a mutex may be held, double-locks, unbalanced lock/unlock paths, and requires-unlocked violations",
	Run:  run,
}

// transportPkgSuffix identifies the package whose Send methods seed the
// may-send property. Matched by suffix so the analyzer covers both the
// real module path and the analysistest fixtures mirroring it.
const transportPkgSuffix = "internal/transport"

// Facts exported per function (see analysis.Facts):
//
//	lockcheck.maySend          bool     — may reach a transport send
//	lockcheck.requiresUnlocked []string — locks callers must not hold,
//	                                      receiver-relative (".mu") or
//	                                      absolute ("pkgMu")
//	lockcheck.acquires         []string — receiver-rooted locks the
//	                                      function (transitively via
//	                                      same-receiver calls) acquires
const (
	factMaySend          = "lockcheck.maySend"
	factRequiresUnlocked = "lockcheck.requiresUnlocked"
	factAcquires         = "lockcheck.acquires"
)

func run(pass *analysis.Pass) error {
	s := &summarizer{
		pass:     pass,
		graph:    pass.CallGraph(),
		maySend:  make(map[*types.Func]bool),
		reqUnl:   make(map[*types.Func][]string),
		acquires: make(map[*types.Func][]string),
	}
	s.summarize()
	s.export()

	for _, fn := range s.graph.Funcs {
		checkFunc(pass, s, fn.Decl.Body, recvName(fn.Decl), fn.Decl)
	}
	// Function literals get their own pass with an empty entry state.
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			if lit, ok := n.(*ast.FuncLit); ok {
				checkFunc(pass, s, lit.Body, "", lit)
				return false
			}
			return true
		})
	}
	return nil
}

// --- Summaries ------------------------------------------------------

type summarizer struct {
	pass     *analysis.Pass
	graph    *analysis.CallGraph
	maySend  map[*types.Func]bool
	reqUnl   map[*types.Func][]string
	acquires map[*types.Func][]string
}

// summarize computes the package's function summaries to a fixed point:
// may-send and receiver-rooted acquisitions both propagate through
// intra-package calls (imported callees contribute through facts, which
// are final by the driver's dependency ordering).
func (s *summarizer) summarize() {
	// Annotations and direct lock acquisitions first.
	for _, fn := range s.graph.Funcs {
		if fn.Obj == nil {
			continue
		}
		recv := recvName(fn.Decl)
		if d, ok := s.pass.Directive(fn.Decl, "requires-unlocked"); ok {
			s.reqUnl[fn.Obj] = parseLockList(d.Args, recv)
		}
		if recv != "" {
			s.acquires[fn.Obj] = directAcquires(s.pass, fn.Decl.Body, recv)
		}
	}
	for changed := true; changed; {
		changed = false
		for _, fn := range s.graph.Funcs {
			if fn.Obj == nil {
				continue
			}
			recv := recvName(fn.Decl)
			for _, call := range fn.Calls {
				if call.Callee == nil {
					continue
				}
				if !s.maySend[fn.Obj] && s.calleeMaySend(call.Callee) {
					s.maySend[fn.Obj] = true
					changed = true
				}
				// Same-receiver method calls propagate receiver-rooted
				// acquisitions: n.Crashed() inside a Node method makes
				// the method acquire ".mu" too.
				if recv == "" {
					continue
				}
				sel, ok := ast.Unparen(call.Site.Fun).(*ast.SelectorExpr)
				if !ok || rfhlintutil.ExprString(s.pass.Fset, sel.X) != recv {
					continue
				}
				for _, rel := range s.calleeAcquires(call.Callee) {
					if !strings.HasPrefix(rel, ".") {
						continue
					}
					acq := s.acquires[fn.Obj]
					if addUnique(&acq, rel) {
						s.acquires[fn.Obj] = acq
						changed = true
					}
				}
			}
		}
	}
}

func (s *summarizer) export() {
	for _, fn := range s.graph.Funcs {
		if fn.Obj == nil {
			continue
		}
		if s.maySend[fn.Obj] {
			s.pass.ExportObjectFact(fn.Obj, factMaySend, true)
		}
		if r := s.reqUnl[fn.Obj]; len(r) > 0 {
			s.pass.ExportObjectFact(fn.Obj, factRequiresUnlocked, r)
		}
		if a := s.acquires[fn.Obj]; len(a) > 0 {
			s.pass.ExportObjectFact(fn.Obj, factAcquires, a)
		}
	}
}

// calleeMaySend consults, in order: the transport-package base case,
// the local fixpoint state, and the cross-package fact store.
func (s *summarizer) calleeMaySend(fn *types.Func) bool {
	if isTransportSend(fn) {
		return true
	}
	if s.maySend[fn] {
		return true
	}
	v, ok := s.pass.ImportObjectFact(fn, factMaySend)
	return ok && v == true
}

func (s *summarizer) calleeRequiresUnlocked(fn *types.Func) []string {
	if r, ok := s.reqUnl[fn]; ok {
		return r
	}
	if v, ok := s.pass.ImportObjectFact(fn, factRequiresUnlocked); ok {
		r, _ := v.([]string)
		return r
	}
	return nil
}

func (s *summarizer) calleeAcquires(fn *types.Func) []string {
	if a, ok := s.acquires[fn]; ok {
		return a
	}
	if v, ok := s.pass.ImportObjectFact(fn, factAcquires); ok {
		a, _ := v.([]string)
		return a
	}
	return nil
}

func isTransportSend(fn *types.Func) bool {
	if fn.Name() != "Send" || fn.Pkg() == nil {
		return false
	}
	path := fn.Pkg().Path()
	return path == transportPkgSuffix || strings.HasSuffix(path, "/"+transportPkgSuffix)
}

// parseLockList parses a requires-unlocked argument list ("n.mu" or
// "n.mu, pkgMu") into canonical form: receiver-rooted locks become
// receiver-relative (".mu"), everything else stays as written.
func parseLockList(args, recv string) []string {
	var out []string
	for _, a := range strings.FieldsFunc(args, func(r rune) bool { return r == ',' || r == ' ' }) {
		if a == "" {
			continue
		}
		if recv != "" && strings.HasPrefix(a, recv+".") {
			a = a[len(recv):]
		}
		out = append(out, a)
	}
	return out
}

// directAcquires collects the receiver-relative lock expressions the
// body locks directly ("n.mu.Lock()" with receiver n yields ".mu").
func directAcquires(pass *analysis.Pass, body *ast.BlockStmt, recv string) []string {
	var out []string
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		op, ok := mutexOp(pass, call)
		if !ok || !op.lock {
			return true
		}
		if strings.HasPrefix(op.expr, recv+".") {
			addUnique(&out, op.expr[len(recv):])
		}
		return true
	})
	return out
}

func addUnique(dst *[]string, s string) bool {
	for _, v := range *dst {
		if v == s {
			return false
		}
	}
	*dst = append(*dst, s)
	return true
}

// recvName returns the receiver identifier of a method declaration, ""
// for functions and literals.
func recvName(decl *ast.FuncDecl) string {
	if decl.Recv == nil || len(decl.Recv.List) == 0 || len(decl.Recv.List[0].Names) == 0 {
		return ""
	}
	return decl.Recv.List[0].Names[0].Name
}

// --- Mutex operations -----------------------------------------------

// mutexOp describes one lock/unlock call: the printed operand
// expression, whether it acquires, and the mode (write or read).
type lockOp struct {
	expr  string
	lock  bool
	write bool
}

// mutexOp recognises calls to the sync.Mutex / sync.RWMutex lock
// methods and returns the operation. Embedded mutexes (a struct with
// sync.Mutex inlined) resolve to the embedding expression.
func mutexOp(pass *analysis.Pass, call *ast.CallExpr) (lockOp, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return lockOp{}, false
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return lockOp{}, false
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return lockOp{}, false
	}
	switch typeName(recv.Type()) {
	case "Mutex", "RWMutex":
	default:
		return lockOp{}, false
	}
	op := lockOp{expr: rfhlintutil.ExprString(pass.Fset, sel.X)}
	switch fn.Name() {
	case "Lock":
		op.lock, op.write = true, true
	case "Unlock":
		op.write = true
	case "RLock":
		op.lock = true
	case "RUnlock":
	default:
		return lockOp{}, false // TryLock etc.: conditional, not modeled
	}
	return op, true
}

func typeName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

// --- Dataflow -------------------------------------------------------

// lockState is the abstract state at one program point. Both sets are
// may-sets (union merge): a lock in either may be held on some path
// reaching the point.
type lockState struct {
	// held maps lock expr -> mode ("W"/"R") for locks acquired with no
	// release scheduled yet. A lock here at a return is a leak.
	held map[string]string
	// defHeld is the same for locks whose release is deferred: still
	// held for send-under-lock purposes, but satisfied at return.
	defHeld map[string]string
}

func (s lockState) clone() lockState {
	c := lockState{held: make(map[string]string, len(s.held)), defHeld: make(map[string]string, len(s.defHeld))}
	for k, v := range s.held {
		c.held[k] = v
	}
	for k, v := range s.defHeld {
		c.defHeld[k] = v
	}
	return c
}

func (s lockState) heldMode(expr string) (string, bool) {
	if m, ok := s.held[expr]; ok {
		return m, true
	}
	m, ok := s.defHeld[expr]
	return m, ok
}

// anyHeld returns a deterministic representative held lock, "" if none.
func (s lockState) anyHeld() string {
	var exprs []string
	for e := range s.held {
		exprs = append(exprs, e)
	}
	for e := range s.defHeld {
		exprs = append(exprs, e)
	}
	if len(exprs) == 0 {
		return ""
	}
	sort.Strings(exprs)
	return exprs[0]
}

func mergeStates(a, b lockState) lockState {
	c := a.clone()
	for k, v := range b.held {
		c.held[k] = v
	}
	for k, v := range b.defHeld {
		c.defHeld[k] = v
	}
	return c
}

func equalStates(a, b lockState) bool {
	if len(a.held) != len(b.held) || len(a.defHeld) != len(b.defHeld) {
		return false
	}
	for k, v := range a.held {
		if b.held[k] != v {
			return false
		}
	}
	for k, v := range a.defHeld {
		if b.defHeld[k] != v {
			return false
		}
	}
	return true
}

// checkFunc solves the lock-state flow over one function body and then
// replays each reached block once against its fixed-point input state,
// reporting violations. where is the declaration node (for skipping).
func checkFunc(pass *analysis.Pass, s *summarizer, body *ast.BlockStmt, recv string, where ast.Node) {
	g := analysis.BuildCFG(body, pass.TypesInfo, nil)
	if g.Unsupported != nil {
		return
	}
	emptyState := lockState{held: map[string]string{}, defHeld: map[string]string{}}
	in, reached := analysis.Solve(g, analysis.FlowProblem[lockState]{
		Entry: emptyState,
		Merge: mergeStates,
		Equal: equalStates,
		Transfer: func(st lockState, n ast.Node, _ *analysis.CFBlock) lockState {
			return transfer(pass, st, n, nil)
		},
	})
	// Reporting sweep: one deterministic visit per reached block.
	rep := &reporter{pass: pass, s: s, recv: recv}
	for i, blk := range g.Blocks {
		if !reached[i] {
			continue
		}
		st := in[i]
		for _, n := range blk.Nodes {
			st = transfer(pass, st, n, rep)
		}
		if st.anyHeld() == "" {
			continue
		}
		for _, succ := range blk.Succs {
			if succ == g.Exit() && !endsInReturn(blk) {
				// Fall-off-the-end exit with a lock still unreleased.
				if leaked := leakedLocks(st); len(leaked) > 0 {
					rep.pass.Reportf(body.Rbrace, "function can return with %s still locked (no unlock or deferred unlock on this path)",
						strings.Join(leaked, ", "))
				}
			}
		}
	}
}

func endsInReturn(blk *analysis.CFBlock) bool {
	if len(blk.Nodes) == 0 {
		return false
	}
	_, ok := blk.Nodes[len(blk.Nodes)-1].(*ast.ReturnStmt)
	return ok
}

func leakedLocks(st lockState) []string {
	var out []string
	for e := range st.held {
		out = append(out, e)
	}
	sort.Strings(out)
	return out
}

// reporter carries the context the reporting replay needs; a nil
// reporter makes transfer silent (the fixpoint phase).
type reporter struct {
	pass *analysis.Pass
	s    *summarizer
	recv string
}

// transfer applies one CFG node to the state. When rep is non-nil it
// also reports violations; the state transition itself is identical in
// both phases so the replayed states match the fixpoint.
func transfer(pass *analysis.Pass, st lockState, n ast.Node, rep *reporter) lockState {
	st = st.clone()
	if ret, ok := n.(*ast.ReturnStmt); ok {
		if rep != nil {
			if leaked := leakedLocks(st); len(leaked) > 0 {
				rep.pass.Reportf(ret.Pos(), "return with %s still locked (no unlock or deferred unlock on this path)",
					strings.Join(leaked, ", "))
			}
		}
		// Walk the result expressions for calls (e.g. return n.send()).
		for _, res := range ret.Results {
			st = scanNode(pass, st, res, rep, false)
		}
		return st
	}
	if def, ok := n.(*ast.DeferStmt); ok {
		if op, ok := mutexOp(pass, def.Call); ok && !op.lock {
			mode := "W"
			if !op.write {
				mode = "R"
			}
			if m, held := st.held[op.expr]; held && m == mode {
				delete(st.held, op.expr)
				st.defHeld[op.expr] = mode
			} else if rep != nil {
				if !held {
					if _, already := st.defHeld[op.expr]; already {
						rep.pass.Reportf(def.Pos(), "deferred unlock of %s, which already has a deferred unlock on this path", op.expr)
					} else if m2, anyMode := st.heldMode(op.expr); anyMode {
						rep.pass.Reportf(def.Pos(), "deferred %s of %s, which is held in %s mode", unlockName(op.write), op.expr, modeWord(m2))
					} else {
						rep.pass.Reportf(def.Pos(), "deferred unlock of %s, which is not locked at this point", op.expr)
					}
				} else {
					rep.pass.Reportf(def.Pos(), "deferred %s of %s, which is held in %s mode", unlockName(op.write), op.expr, modeWord(m))
				}
			}
			return st
		}
		// A deferred non-mutex call: scan it like an immediate call
		// (argument expressions evaluate now; the call itself runs at
		// return, when the lock context can only be smaller).
		return scanNode(pass, st, def.Call, rep, true)
	}
	return scanNode(pass, st, n, rep, false)
}

// scanNode walks one leaf node (statement or expression) in source
// order, applying lock operations and checking call sites. Function
// literal bodies are skipped — they execute under their own state.
func scanNode(pass *analysis.Pass, st lockState, n ast.Node, rep *reporter, skipCallCheck bool) lockState {
	ast.Inspect(n, func(m ast.Node) bool {
		if _, ok := m.(*ast.FuncLit); ok {
			return false
		}
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		if op, ok := mutexOp(pass, call); ok {
			st = applyOp(st, op, call, rep)
			return true
		}
		if rep != nil && !skipCallCheck {
			rep.checkCall(st, call)
		}
		return true
	})
	return st
}

// applyOp transitions the state over one lock/unlock call.
func applyOp(st lockState, op lockOp, call *ast.CallExpr, rep *reporter) lockState {
	mode := "W"
	if !op.write {
		mode = "R"
	}
	if op.lock {
		if m, held := st.heldMode(op.expr); held && rep != nil {
			rep.pass.Reportf(call.Pos(), "%s of %s, which may already be held in %s mode on this path (double-lock deadlocks)",
				lockName(op.write), op.expr, modeWord(m))
		}
		st.held[op.expr] = mode
		return st
	}
	if m, held := st.held[op.expr]; held {
		if m != mode && rep != nil {
			rep.pass.Reportf(call.Pos(), "%s of %s, which is held in %s mode", unlockName(op.write), op.expr, modeWord(m))
		}
		delete(st.held, op.expr)
		return st
	}
	if m, held := st.defHeld[op.expr]; held {
		if m != mode && rep != nil {
			rep.pass.Reportf(call.Pos(), "%s of %s, which is held in %s mode", unlockName(op.write), op.expr, modeWord(m))
		}
		delete(st.defHeld, op.expr)
		return st
	}
	if rep != nil {
		rep.pass.Reportf(call.Pos(), "%s of %s, which is not locked at this point", unlockName(op.write), op.expr)
	}
	return st
}

// checkCall reports send-under-lock, requires-unlocked, and
// interprocedural double-lock violations at one call site.
func (rep *reporter) checkCall(st lockState, call *ast.CallExpr) {
	fn := calleeFunc(rep.pass.TypesInfo, call)
	if fn == nil {
		return
	}
	if held := st.anyHeld(); held != "" && rep.s.calleeMaySend(fn) {
		rep.pass.Reportf(call.Pos(), "call to %s may perform a network send while %s is held; release the lock first (the loopback transport delivers synchronously)",
			fn.Name(), held)
	}
	// Receiver expression of the call, for rebasing relative locks.
	var recvExpr string
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		recvExpr = rfhlintutil.ExprString(rep.pass.Fset, sel.X)
	}
	for _, lock := range rep.s.calleeRequiresUnlocked(fn) {
		abs := rebase(lock, recvExpr)
		if abs == "" {
			continue
		}
		if _, held := st.heldMode(abs); held {
			rep.pass.Reportf(call.Pos(), "call to %s, which requires %s unlocked (lint:requires-unlocked), while %s may be held",
				fn.Name(), abs, abs)
		}
	}
	for _, lock := range rep.s.calleeAcquires(fn) {
		abs := rebase(lock, recvExpr)
		if abs == "" {
			continue
		}
		if m, held := st.heldMode(abs); held {
			rep.pass.Reportf(call.Pos(), "call to %s, which acquires %s, while %s may already be held in %s mode (double-lock deadlocks)",
				fn.Name(), abs, abs, modeWord(m))
		}
	}
}

// rebase resolves a fact lock path against the call's receiver
// expression: relative paths (".mu") attach to the receiver, absolute
// ones pass through. A relative path with no receiver has no referent.
func rebase(lock, recvExpr string) string {
	if !strings.HasPrefix(lock, ".") {
		return lock
	}
	if recvExpr == "" {
		return ""
	}
	return recvExpr + lock
}

func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

func lockName(write bool) string {
	if write {
		return "Lock"
	}
	return "RLock"
}

func unlockName(write bool) string {
	if write {
		return "Unlock"
	}
	return "RUnlock"
}

func modeWord(mode string) string {
	if mode == "W" {
		return "write"
	}
	return "read"
}
