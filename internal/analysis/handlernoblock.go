package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// HandlerNoBlock enforces the amnet contract "handlers must never block"
// (internal/amnet/amnet.go): CMAM deadlock freedom rests on a sender
// draining its own inbox while stalled, which only helps if the handlers
// it runs always run to completion.  The analyzer computes the static
// call graph reachable from every expression registered as an
// amnet.Handler — Register call sites, any call whose parameter type is
// amnet.Handler (the kernel's reg wrapper), and handler-table composite
// literals — and flags reachable blocking operations:
//
//   - channel send/receive/range outside a select with a default clause,
//     and select statements without a default clause;
//   - known-blocking standard library calls (time.Sleep, sync.Mutex.Lock
//     and friends, WaitGroup.Wait, Cond.Wait, Once.Do);
//   - the amnet contract hazards Endpoint.Wait and Endpoint.RecvBlock
//     (they park by contract).
//
// Propagation crosses package boundaries through facts; indirect calls
// (function values, actor behaviors) are not followed — the analyzer
// polices the kernel's own plumbing, not application behavior code.
// Known blindspot of that rule: callback-taking std methods such as
// (*sync.Map).Range run their argument synchronously, but the argument
// is a function value, so a blocking Range callback is invisible to the
// static graph.  Keep sync.Map iteration out of handler paths (or flag a
// new hazard entry here if one ever appears in the kernel).
// Sanctioned blocking (the poll-while-stalled discipline in
// amnet's Endpoint.stall) is marked //halvet:allowblock with justification.
var HandlerNoBlock = &Analyzer{
	Name: "handlernoblock",
	Doc:  "flag blocking operations reachable from amnet handlers",
	Run:  runHandlerNoBlock,
}

// nbFacts is the per-package fact blob: function key (types.Func.FullName)
// -> witness chain from the function to a blocking operation.
type nbFacts struct {
	Blocking map[string][]string `json:"blocking,omitempty"`
}

// nbBuiltinBlocking are standard-library calls that park the calling
// goroutine.  Calls into std not listed here are assumed non-blocking for
// the PE (e.g. fmt printing); the table is the analyzer's model of std,
// since std packages are not themselves analyzed.
var nbBuiltinBlocking = map[string]string{
	"time.Sleep":             "time.Sleep parks the PE goroutine",
	"(*sync.Mutex).Lock":     "sync.Mutex.Lock may block on a contended lock",
	"(*sync.RWMutex).Lock":   "sync.RWMutex.Lock may block on a contended lock",
	"(*sync.RWMutex).RLock":  "sync.RWMutex.RLock may block on a contended lock",
	"(*sync.WaitGroup).Wait": "sync.WaitGroup.Wait parks until the group drains",
	"(*sync.Cond).Wait":      "sync.Cond.Wait parks until signaled",
	"(*sync.Once).Do":        "sync.Once.Do may block waiting for the winning call",
	// RLocker's Locker locks through interface dispatch, which the static
	// graph cannot see; the acquisition site is flagged instead, since the
	// only purpose of an RLocker is to Lock it.
	"(*sync.RWMutex).RLocker": "sync.RWMutex.RLocker yields a Locker whose Lock parks like RLock (interface calls are invisible to the static graph, so the acquisition is flagged)",
}

// nbContractHazard returns a non-empty reason when fn is an amnet Endpoint
// method that must not run from handler context even though it does not
// always park.
func nbContractHazard(fn *types.Func) string {
	if !isAmnetEndpointMethod(fn) {
		return ""
	}
	if name := fn.Name(); name == "Wait" || name == "RecvBlock" {
		return "Endpoint." + name + " parks the PE by contract"
	}
	return ""
}

// nbEvent is one primitive blocking operation found in a function body.
type nbEvent struct {
	pos  token.Pos
	desc string
}

// nbCall is one static call edge out of a function body.
type nbCall struct {
	pos     token.Pos
	pkgPath string // callee's package path ("" for builtins already resolved)
	key     string // callee FullName
	short   string // callee name for chain rendering
}

// nbFunc is the per-function scan result.
type nbFunc struct {
	events []nbEvent
	calls  []nbCall
}

type nbRoot struct {
	pos token.Pos
	// exactly one of lit / key is set
	lit     *nbFunc // scanned function literal
	pkgPath string
	key     string
	short   string
}

// nbAllowed is one //halvet:allowblock-trusted function, kept with its
// untrusted ("shadow") scan so the directive can be staleness-checked: the
// directive is live only if the body would still block without it.
type nbAllowed struct {
	key    DirectiveKey
	shadow *nbFunc
}

func runHandlerNoBlock(pass *Pass) error {
	s := &nbState{pass: pass, funcs: map[string]*nbFunc{}, memo: map[string][]string{}}
	var allowed []nbAllowed

	// Scan every declared function in the package.
	for _, file := range pass.Files {
		s.file = file
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			if dk, ok := pass.funcDirective("allowblock", fd); ok {
				allowed = append(allowed, nbAllowed{key: dk, shadow: s.scanBody(fd.Body)})
				s.funcs[obj.FullName()] = &nbFunc{} // trusted: treated as clean
				continue
			}
			s.funcs[obj.FullName()] = s.scanBody(fd.Body)
		}
	}

	// Counterfactual staleness check: a function-level allowblock is live
	// only while the untrusted body still reaches a blocking operation.
	for _, a := range allowed {
		if s.resolveFunc(a.shadow, map[string]bool{}) != nil {
			pass.UseKey(a.key)
		}
	}

	// Export facts: every function with a blocking witness chain.
	facts := nbFacts{Blocking: map[string][]string{}}
	keys := make([]string, 0, len(s.funcs))
	for k := range s.funcs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if chain := s.resolveKey(pass.Pkg.Path(), k); chain != nil {
			facts.Blocking[k] = chain
		}
	}
	if err := pass.ExportFacts(facts); err != nil {
		return err
	}
	if pass.FactsOnly {
		return nil
	}

	// Find handler roots and check reachability.
	seen := map[token.Pos]bool{}
	for _, file := range pass.Files {
		s.file = file
		ast.Inspect(file, func(n ast.Node) bool {
			for _, root := range s.rootsOf(n) {
				if seen[root.pos] {
					continue
				}
				seen[root.pos] = true
				var chain []string
				if root.lit != nil {
					chain = s.resolveFunc(root.lit, map[string]bool{})
				} else {
					chain = s.resolveExternal(root.pkgPath, root.key, root.short, root.pos, map[string]bool{})
					if chain != nil && len(chain) > 1 {
						chain = chain[1:] // drop the synthetic "calls X" hop
					}
				}
				if chain != nil {
					pass.Report(root.pos, "amnet handler must never block: %s", strings.Join(chain, " → "))
				}
			}
			return true
		})
	}
	return nil
}

type nbState struct {
	pass  *Pass
	file  *ast.File
	funcs map[string]*nbFunc
	memo  map[string][]string
	inRes map[string]bool
}

// scanBody collects primitive blocking events and static call edges from
// one function body.  Function literals are not entered: a literal runs on
// whatever goroutine eventually calls it, which the static graph does not
// track (go statements are skipped for the same reason).
func (s *nbState) scanBody(body ast.Node) *nbFunc {
	fn := &nbFunc{}
	s.scanStmt(body, fn, false)
	return fn
}

func (s *nbState) scanStmt(n ast.Node, fn *nbFunc, nonBlockingComms bool) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit, *ast.GoStmt:
			return false // other goroutines' business
		case *ast.SelectStmt:
			s.scanSelect(x, fn)
			return false
		case *ast.SendStmt:
			if !nonBlockingComms {
				s.event(fn, x.Arrow, "channel send")
			}
			return true
		case *ast.UnaryExpr:
			if x.Op == token.ARROW && !nonBlockingComms {
				desc := "channel receive"
				if isTimerChanDrain(s.pass.TypesInfo, x.X) {
					// The Stop-then-drain idiom: `if !t.Stop() { <-t.C }`.
					// Stop does not guarantee a value is (or ever will be)
					// in C — a timer stopped before firing never sends, so
					// a bare drain parks forever.  Drain with a
					// select+default poll instead.
					desc = "(*time.Timer).C drain receive parks forever if the timer was stopped before firing (Stop does not send; poll with select+default)"
				}
				s.event(fn, x.OpPos, desc)
			}
			return true
		case *ast.RangeStmt:
			if tv, ok := s.pass.TypesInfo.Types[x.X]; ok {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
					s.event(fn, x.Range, "range over channel")
				}
			}
			return true
		case *ast.CallExpr:
			s.scanCall(x, fn)
			return true
		}
		return true
	})
}

// scanSelect handles a select statement: with a default clause its
// communications are non-blocking polls; without one the select itself
// parks the goroutine.  Clause bodies are scanned either way.
func (s *nbState) scanSelect(sel *ast.SelectStmt, fn *nbFunc) {
	hasDefault := false
	for _, cl := range sel.Body.List {
		if cc, ok := cl.(*ast.CommClause); ok && cc.Comm == nil {
			hasDefault = true
		}
	}
	if !hasDefault {
		s.event(fn, sel.Select, "select without default")
	}
	for _, cl := range sel.Body.List {
		cc, ok := cl.(*ast.CommClause)
		if !ok {
			continue
		}
		// The comm operation itself is covered by the select verdict; the
		// comm expression may still contain calls (e.g. ch <- f()).
		s.scanStmt(cc.Comm, fn, true)
		for _, st := range cc.Body {
			s.scanStmt(st, fn, false)
		}
	}
}

func (s *nbState) scanCall(call *ast.CallExpr, fn *nbFunc) {
	callee := staticCallee(s.pass.TypesInfo, call)
	if callee == nil {
		return
	}
	key := callee.FullName()
	if desc, ok := nbBuiltinBlocking[key]; ok {
		s.event(fn, call.Pos(), desc)
		return
	}
	if desc := nbContractHazard(callee); desc != "" {
		s.event(fn, call.Pos(), desc)
		return
	}
	pkg := callee.Pkg()
	if pkg == nil {
		return // builtin like len/append
	}
	fn.calls = append(fn.calls, nbCall{
		pos:     call.Pos(),
		pkgPath: pkg.Path(),
		key:     key,
		short:   callee.Name(),
	})
}

// event records a primitive blocking operation unless a statement-level
// //halvet:allowblock directive sanctions it.
func (s *nbState) event(fn *nbFunc, pos token.Pos, desc string) {
	if s.pass.allowAt("allowblock", s.file, s.pass.Fset.Position(pos).Line) {
		return
	}
	fn.events = append(fn.events, nbEvent{pos: pos, desc: desc})
}

// isTimerChanDrain reports whether e is the C field of a *time.Timer (or
// *time.Ticker), i.e. the receive operand of a drain.
func isTimerChanDrain(info *types.Info, e ast.Expr) bool {
	sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "C" {
		return false
	}
	tv, ok := info.Types[sel.X]
	if !ok {
		return false
	}
	t := tv.Type
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok || n.Obj().Pkg() == nil || n.Obj().Pkg().Path() != "time" {
		return false
	}
	return n.Obj().Name() == "Timer" || n.Obj().Name() == "Ticker"
}

const nbMaxChain = 6

// resolveFunc returns a witness chain if fn can reach a blocking operation,
// nil otherwise.  visiting breaks call-graph cycles (a back edge is treated
// as non-blocking; any real blocking in the cycle is found on the forward
// path).
func (s *nbState) resolveFunc(fn *nbFunc, visiting map[string]bool) []string {
	if len(fn.events) > 0 {
		e := fn.events[0]
		return []string{fmt.Sprintf("%s at %s", e.desc, s.shortPos(e.pos))}
	}
	for _, c := range fn.calls {
		if chain := s.resolveExternal(c.pkgPath, c.key, c.short, c.pos, visiting); chain != nil {
			return chain
		}
	}
	return nil
}

// resolveExternal resolves a call edge to a named function, in-package or
// through dependency facts.
func (s *nbState) resolveExternal(pkgPath, key, short string, pos token.Pos, visiting map[string]bool) []string {
	hop := fmt.Sprintf("calls %s at %s", short, s.shortPos(pos))
	if pkgPath == s.pass.Pkg.Path() {
		if visiting[key] {
			return nil
		}
		callee, ok := s.funcs[key]
		if !ok {
			return nil // declared in another file set (assembly stub etc.)
		}
		visiting[key] = true
		chain := s.resolveFunc(callee, visiting)
		delete(visiting, key)
		if chain != nil {
			return capChain(append([]string{hop}, chain...))
		}
		return nil
	}
	var facts nbFacts
	if !s.pass.ImportFacts(pkgPath, &facts) {
		return nil // no facts: un-analyzed dependency, assumed clean
	}
	if chain, ok := facts.Blocking[key]; ok {
		return capChain(append([]string{hop}, chain...))
	}
	return nil
}

// resolveKey resolves an in-package function by key (for fact export).
func (s *nbState) resolveKey(pkgPath, key string) []string {
	if chain, ok := s.memo[key]; ok {
		return chain
	}
	fn := s.funcs[key]
	if fn == nil {
		return nil
	}
	chain := s.resolveFunc(fn, map[string]bool{key: true})
	s.memo[key] = chain
	return chain
}

func capChain(chain []string) []string {
	if len(chain) > nbMaxChain {
		chain = append(chain[:nbMaxChain:nbMaxChain], "…")
	}
	return chain
}

func (s *nbState) shortPos(pos token.Pos) string { return shortPos(s.pass.Fset, pos) }

// rootsOf extracts handler-root expressions from a node: arguments in
// positions typed amnet.Handler (Register and any wrapper), and elements
// of composite literals whose element/field type is amnet.Handler.
func (s *nbState) rootsOf(n ast.Node) []nbRoot {
	var roots []nbRoot
	switch x := n.(type) {
	case *ast.CallExpr:
		tv, ok := s.pass.TypesInfo.Types[x.Fun]
		if !ok {
			return nil
		}
		sig, ok := tv.Type.(*types.Signature)
		if !ok {
			return nil // conversion, not a call
		}
		for i := 0; i < sig.Params().Len() && i < len(x.Args); i++ {
			if isAmnetHandlerType(sig.Params().At(i).Type()) {
				if r, ok := s.rootExpr(x.Args[i]); ok {
					roots = append(roots, r)
				}
			}
		}
	case *ast.CompositeLit:
		tv, ok := s.pass.TypesInfo.Types[x]
		if !ok {
			return nil
		}
		var elem func(i int) types.Type
		switch u := tv.Type.Underlying().(type) {
		case *types.Map:
			e := u.Elem()
			elem = func(int) types.Type { return e }
		case *types.Slice:
			e := u.Elem()
			elem = func(int) types.Type { return e }
		case *types.Array:
			e := u.Elem()
			elem = func(int) types.Type { return e }
		case *types.Struct:
			elem = nil // handled through field resolution below
			for _, el := range x.Elts {
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					if id, ok := kv.Key.(*ast.Ident); ok {
						if f, ok := s.pass.TypesInfo.Uses[id].(*types.Var); ok && isAmnetHandlerType(f.Type()) {
							if r, ok := s.rootExpr(kv.Value); ok {
								roots = append(roots, r)
							}
						}
					}
				}
			}
			return roots
		default:
			return nil
		}
		for i, el := range x.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				el = kv.Value
			}
			if isAmnetHandlerType(elem(i)) {
				if r, ok := s.rootExpr(el); ok {
					roots = append(roots, r)
				}
			}
		}
	}
	return roots
}

// rootExpr classifies a handler expression: a function literal is scanned
// in place; a named function or method value resolves by key.  Anything
// else (a variable holding a handler) is outside the static graph.
func (s *nbState) rootExpr(e ast.Expr) (nbRoot, bool) {
	switch x := ast.Unparen(e).(type) {
	case *ast.FuncLit:
		return nbRoot{pos: x.Pos(), lit: s.scanBody(x.Body)}, true
	case *ast.Ident:
		if f, ok := s.pass.TypesInfo.Uses[x].(*types.Func); ok {
			return nbRoot{pos: x.Pos(), pkgPath: f.Pkg().Path(), key: f.FullName(), short: f.Name()}, true
		}
	case *ast.SelectorExpr:
		if f, ok := s.pass.TypesInfo.Uses[x.Sel].(*types.Func); ok {
			return nbRoot{pos: x.Pos(), pkgPath: f.Pkg().Path(), key: f.FullName(), short: f.Name()}, true
		}
	}
	return nbRoot{}, false
}

// --- shared type helpers -------------------------------------------------

// staticCallee resolves a call expression to the *types.Func it statically
// invokes: a package-level function, a method, or a qualified import.
// Calls through variables (function values, behaviors) return nil.
func staticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := info.Uses[fun].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if f, ok := sel.Obj().(*types.Func); ok {
				return f
			}
			return nil
		}
		if f, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return f
		}
	}
	return nil
}

// isAmnetPkg matches the interconnect package by path so the analyzers key
// off the real types both in this module and in test fixtures importing it.
func isAmnetPkg(pkg *types.Package) bool {
	if pkg == nil {
		return false
	}
	p := pkg.Path()
	return p == "hal/internal/amnet" || p == "amnet" || strings.HasSuffix(p, "/amnet")
}

// isAmnetHandlerType reports whether t is the named type amnet.Handler.
func isAmnetHandlerType(t types.Type) bool {
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	return n.Obj().Name() == "Handler" && isAmnetPkg(n.Obj().Pkg())
}

// isAmnetEndpointMethod reports whether fn is a method on amnet.Endpoint
// (pointer or value receiver).
func isAmnetEndpointMethod(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	return n.Obj().Name() == "Endpoint" && isAmnetPkg(n.Obj().Pkg())
}
