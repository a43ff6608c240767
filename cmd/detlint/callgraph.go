package main

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// This file builds the whole-module static call graph the v2 rules walk.
//
// Nodes are package-level functions and methods (plus synthetic nodes for
// event-handler closures), keyed by types.Func.FullName() — a string
// identity that is stable across the separate type-checker instances each
// package is checked with, so an edge recorded in internal/shard resolves
// to the node built while analyzing internal/fleet. Edges are static call
// sites. Two module passes run over the graph:
//
//   - wallclock (transitive): a function in a sim-facing package that
//     calls a helper in a non-sim package which — possibly through more
//     helpers — reads the host clock. The per-package wallclock pass
//     cannot see this; the graph pass reports it with the full chain.
//   - horizon: a shard event handler (a callback registered through
//     Shard.OnDeliver, or scheduled on an engine from inside
//     internal/shard) that reaches a sim.Engine clock-control primitive
//     (Advance, Run, RunUntil, RunBefore, RunFor, Step). A handler runs
//     inside a granted synchronization window; moving the clock from
//     within one desynchronizes the world (DESIGN.md §16).
//
// The deadcode pass (deadcode.go) walks a second edge set built alongside
// from non-test files: every reference to a function, package-level
// variable or package-level constant, not only calls.
//
// Known limitations, by design: calls through interface methods and
// func-typed fields/variables dead-end (no body to follow), and a
// dynamically-guarded path (a branch that returns before the primitive)
// is still statically reachable — that is what justified allow
// directives are for.

// cgEdge is one static call site.
type cgEdge struct {
	callee        string // callee node ID (types.Func FullName)
	calleeDisplay string // human-readable callee name
	pos           token.Position
	horizonBanned bool // callee is a sim.Engine clock-control primitive
}

// cgPrim is one direct use of a rule primitive (a time.Now-class call)
// inside a node's body.
type cgPrim struct {
	label string // e.g. "time.Now"
	pos   token.Position
}

// cgNode is one function in the call graph.
type cgNode struct {
	id          string
	display     string
	pkgRel      string // module-relative package dir the body lives in
	edges       []cgEdge
	wallclock   []cgPrim
	handlerRoot bool // registered as a shard event handler
}

// callGraph is the merged module graph.
type callGraph struct {
	nodes map[string]*cgNode
	// rootRefs are IDs of named functions passed by reference to a
	// handler-registering call; resolved into handlerRoot flags after
	// the merge (the referenced function may live in another package).
	rootRefs []string

	// The deadcode pass's reference graph, built from non-test files
	// only and kept apart from the call edges wallclock and horizon walk.
	refNodes map[string]*refNode
	// refRoots are functions, variables and constants referenced from
	// init bodies, package-level variable initializers and type
	// declarations.
	refRoots []string
	// ifaceNames are the method names of every interface the program
	// can call through.
	ifaceNames map[string]bool
}

// refNode is one production function, package-level variable or
// package-level constant in the deadcode pass's graph. A function's refs
// are every reference to a function, variable or constant — a call, a
// method value or expression, a function value, a use — where a cgNode's
// edges are static calls only. A constant's refs are the constants its
// value names; a variable has no refs.
type refNode struct {
	id      string
	display string
	pos     token.Position // the func keyword
	refs    []string
	method  string // method name; "" for a plain function
	main    bool   // package main's main
	allowed bool   // carries //detlint:allow deadcode, which makes it a root
	report  bool   // declared under internal/, where the pass reports
}

// pkgGraph is one package's share of the module graph.
type pkgGraph struct {
	nodes       []*cgNode
	handlerRefs []string
	refNodes    []*refNode
	refRoots    []string
	ifaceNames  map[string]bool
}

// moduleCtx is what a module-level pass sees: the merged graph, the
// scope configuration, and a report sink that attributes findings back
// to packages for directive matching.
type moduleCtx struct {
	graph  *callGraph
	scopes *scopes
	report func(pos token.Position, rule, msg string, chain []string)
	// relPos rewrites a position's filename to its module-relative form,
	// so chain messages stay host-independent (and byte-identical across
	// checkouts).
	relPos func(token.Position) token.Position
}

// mergeGraph combines per-package node sets in deterministic package
// order and resolves handler root references.
func mergeGraph(perPkg []*pkgGraph) *callGraph {
	g := &callGraph{
		nodes:      map[string]*cgNode{},
		refNodes:   map[string]*refNode{},
		ifaceNames: map[string]bool{},
	}
	for _, name := range implicitIfaceMethods {
		g.ifaceNames[name] = true
	}
	for _, pg := range perPkg {
		for _, n := range pg.nodes {
			g.nodes[n.id] = n
		}
		g.rootRefs = append(g.rootRefs, pg.handlerRefs...)
		for _, n := range pg.refNodes {
			g.refNodes[n.id] = n
		}
		g.refRoots = append(g.refRoots, pg.refRoots...)
		for name := range pg.ifaceNames {
			g.ifaceNames[name] = true
		}
	}
	for _, id := range g.rootRefs {
		if n := g.nodes[id]; n != nil {
			n.handlerRoot = true
		}
	}
	return g
}

// sortedNodeIDs returns the graph's node IDs in lexical order, so module
// passes iterate deterministically (the linter obeys its own maporder
// rule).
func (g *callGraph) sortedNodeIDs() []string {
	ids := make([]string, 0, len(g.nodes))
	for id := range g.nodes {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// graphBuilder walks one package's functions, collecting nodes, edges,
// primitive uses, and handler registrations, and, from its non-test
// files, the deadcode pass's reference graph.
type graphBuilder struct {
	pass *Pass
	rel  string
	out  pkgGraph
	// handlerLits marks function literals consumed as handler
	// registrations, so the generic walk skips them (Inspect visits a
	// call before its arguments, so the mark lands first).
	handlerLits map[*ast.FuncLit]bool
	seenTypes   map[types.Type]bool
}

// buildGraphNodes constructs the call-graph nodes for one package.
func buildGraphNodes(fset *token.FileSet, pkg *Package) *pkgGraph {
	b := &graphBuilder{
		pass:      &Pass{Fset: fset, Files: pkg.Files, Info: pkg.Info},
		rel:       pkg.Rel,
		out:       pkgGraph{ifaceNames: map[string]bool{}},
		seenTypes: map[types.Type]bool{},
	}
	for _, f := range pkg.Files {
		prod := !strings.HasSuffix(fset.Position(f.Package).Filename, "_test.go")
		var allowed map[int]bool
		if prod {
			allowed = deadcodeAllowLines(fset, f)
			b.collectIfaceNames(f)
		}
		for _, decl := range f.Decls {
			if gd, ok := decl.(*ast.GenDecl); ok && prod {
				if gd.Tok == token.VAR || gd.Tok == token.TYPE {
					// A variable's initializer and a type's array
					// lengths root what they name.
					b.out.refRoots = append(b.out.refRoots, b.pass.declRefs(gd)...)
				}
				if gd.Tok == token.VAR || gd.Tok == token.CONST {
					b.addValueNodes(gd, allowed)
				}
			}
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := b.pass.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			node := &cgNode{id: fn.FullName(), display: displayName(fn), pkgRel: pkg.Rel}
			b.out.nodes = append(b.out.nodes, node)
			b.walkBody(node, fd.Body)
			if prod {
				b.addRefNode(f, fd, fn, allowed)
			}
		}
	}
	return &b.out
}

// walkBody attributes calls and primitive uses in body to node. Nested
// function literals belong to the enclosing node — their statements run
// (at most) when the enclosing function arranges it, and attributing
// them upward keeps the analysis conservative — except literals passed
// to a handler-registering call, which become handler-root nodes of
// their own.
func (b *graphBuilder) walkBody(node *cgNode, body ast.Node) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			// Visited explicitly below when it is a handler argument;
			// otherwise fold its body into the enclosing node.
			if b.handlerLits[n] {
				return false
			}
			return true
		case *ast.CallExpr:
			b.recordCall(node, n)
		case *ast.SelectorExpr:
			if b.pass.pkgPathOf(n.X) == "time" && wallclockBanned[n.Sel.Name] {
				node.wallclock = append(node.wallclock, cgPrim{
					label: "time." + n.Sel.Name,
					pos:   b.pass.Fset.Position(n.Pos()),
				})
			}
		}
		return true
	})
}

// recordCall resolves one call expression into an edge, and recognizes
// handler registrations.
func (b *graphBuilder) recordCall(node *cgNode, call *ast.CallExpr) {
	fn := b.calleeFunc(call)
	if fn == nil {
		return
	}
	if idx, ok := handlerArgIndex(fn, b.rel); ok && idx < len(call.Args) {
		b.registerHandler(node, call.Args[idx])
	}
	b.addEdge(node, fn, call.Pos())
}

// addEdge appends a call edge from node to fn.
func (b *graphBuilder) addEdge(node *cgNode, fn *types.Func, pos token.Pos) {
	node.edges = append(node.edges, cgEdge{
		callee:        fn.FullName(),
		calleeDisplay: displayName(fn),
		pos:           b.pass.Fset.Position(pos),
		horizonBanned: isHorizonBanned(fn),
	})
}

// registerHandler processes the handler argument of a registration call:
// a function literal becomes a synthetic root node; a reference to a
// named function marks that function as a root.
func (b *graphBuilder) registerHandler(parent *cgNode, arg ast.Expr) {
	switch arg := arg.(type) {
	case *ast.FuncLit:
		if b.handlerLits == nil {
			b.handlerLits = map[*ast.FuncLit]bool{}
		}
		b.handlerLits[arg] = true
		pos := b.pass.Fset.Position(arg.Pos())
		syn := &cgNode{
			id:          fmt.Sprintf("%s$handler@%d", parent.id, pos.Line),
			display:     fmt.Sprintf("%s(handler@%d)", parent.display, pos.Line),
			pkgRel:      parent.pkgRel,
			handlerRoot: true,
		}
		b.out.nodes = append(b.out.nodes, syn)
		b.walkBody(syn, arg.Body)
	case *ast.Ident:
		if fn, ok := b.pass.objectOf(arg).(*types.Func); ok {
			b.out.handlerRefs = append(b.out.handlerRefs, fn.FullName())
		}
	case *ast.SelectorExpr:
		if fn, ok := b.pass.objectOf(arg.Sel).(*types.Func); ok {
			b.out.handlerRefs = append(b.out.handlerRefs, fn.FullName())
		}
	}
}

// calleeFunc resolves a call expression's target to a *types.Func, or
// nil for builtins, conversions, and calls through func values.
func (b *graphBuilder) calleeFunc(call *ast.CallExpr) *types.Func {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		fn, _ := b.pass.objectOf(fun).(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := b.pass.objectOf(fun.Sel).(*types.Func)
		return fn
	}
	return nil
}

// funcHome reports the defining package path and receiver type name
// ("" for plain functions) of fn.
func funcHome(fn *types.Func) (pkgPath, recv string) {
	if fn.Pkg() != nil {
		pkgPath = fn.Pkg().Path()
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return pkgPath, ""
	}
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		recv = named.Obj().Name()
	}
	return pkgPath, recv
}

// pkgSuffix reports whether path is, or ends with, the given
// module-relative suffix — "internal/sim" matches both the real module's
// cloudskulk/internal/sim and a fixture module's xmod/internal/sim, so
// the graph rules are testable against a miniature module.
func pkgSuffix(path, suffix string) bool {
	return path == suffix || strings.HasSuffix(path, "/"+suffix)
}

// horizonBannedMethods are the sim.Engine methods that move the virtual
// clock or pump the event loop. None of them may run inside a shard
// event handler: the handler's shard holds only a bounded advance grant.
var horizonBannedMethods = map[string]bool{
	"Advance": true, "Run": true, "RunUntil": true,
	"RunBefore": true, "RunFor": true, "Step": true,
}

// isHorizonBanned reports whether fn is a sim.Engine clock-control
// primitive.
func isHorizonBanned(fn *types.Func) bool {
	if !horizonBannedMethods[fn.Name()] {
		return false
	}
	pkg, recv := funcHome(fn)
	return recv == "Engine" && pkgSuffix(pkg, "internal/sim")
}

// handlerArgIndex reports whether fn is a handler-registering call and
// which argument carries the handler. Two shapes count:
//
//   - (*shard.Shard).OnDeliver(fn): the cross-shard delivery handler.
//   - (*sim.Engine).Schedule/ScheduleAt(..., fn) called from inside
//     internal/shard: the exchange/migration machinery scheduling work
//     that will run inside a future synchronization window.
func handlerArgIndex(fn *types.Func, callerRel string) (int, bool) {
	pkg, recv := funcHome(fn)
	if fn.Name() == "OnDeliver" && recv == "Shard" && pkgSuffix(pkg, "internal/shard") {
		return 0, true
	}
	if recv == "Engine" && pkgSuffix(pkg, "internal/sim") && pkgSuffix(callerRel, "internal/shard") {
		switch fn.Name() {
		case "Schedule", "ScheduleAt":
			return 2, true
		}
	}
	return 0, false
}

// displayName renders fn compactly for chain messages: the defining
// package's last path element plus receiver, e.g. "(*fleet.Fleet).StartGuest"
// or "stats.Mean".
func displayName(fn *types.Func) string {
	pkg, _ := funcHome(fn)
	short := pkg
	if i := strings.LastIndex(pkg, "/"); i >= 0 {
		short = pkg[i+1:]
	}
	sig, ok := fn.Type().(*types.Signature)
	if ok && sig.Recv() != nil {
		star := ""
		if _, isPtr := sig.Recv().Type().(*types.Pointer); isPtr {
			star = "*"
		}
		t := sig.Recv().Type()
		if ptr, okp := t.(*types.Pointer); okp {
			t = ptr.Elem()
		}
		recv := "?"
		if named, okn := t.(*types.Named); okn {
			recv = named.Obj().Name()
		}
		return fmt.Sprintf("(%s%s.%s).%s", star, short, recv, fn.Name())
	}
	if short == "" {
		return fn.Name()
	}
	return short + "." + fn.Name()
}

// --- module passes ---

// chainStep is one hop of a reconstructed path.
type chainStep struct {
	display string
	pos     token.Position
}

// searchFrom runs a BFS beginning at the edge first (already taken from
// a root), expanding only through module functions admitted by expand,
// until goal reports an edge or node terminal. It returns the chain of
// displays (first edge's callee first), or nil.
func (g *callGraph) searchFrom(first cgEdge, expand func(*cgNode) bool, goal func(*cgNode, cgEdge) (string, token.Position, bool)) []chainStep {
	type qent struct {
		id   string
		path []chainStep
	}
	// The root's own edge may already be the goal (a handler calling a
	// banned primitive directly).
	if label, pos, ok := goal(nil, first); ok {
		return []chainStep{{display: label, pos: pos}}
	}
	start := g.nodes[first.callee]
	firstStep := chainStep{display: first.calleeDisplay, pos: first.pos}
	if start == nil {
		return nil
	}
	// A terminal condition on the starting node itself (e.g. it holds a
	// direct wallclock primitive).
	if label, pos, ok := goal(start, cgEdge{}); ok {
		return []chainStep{firstStep, {display: label, pos: pos}}
	}
	if !expand(start) {
		return nil
	}
	visited := map[string]bool{start.id: true}
	queue := []qent{{id: start.id, path: []chainStep{firstStep}}}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		node := g.nodes[cur.id]
		for _, e := range node.edges {
			if label, pos, ok := goal(nil, e); ok {
				return append(append([]chainStep(nil), cur.path...),
					chainStep{display: label, pos: pos})
			}
			next := g.nodes[e.callee]
			if next == nil || visited[next.id] {
				continue
			}
			visited[next.id] = true
			step := chainStep{display: e.calleeDisplay, pos: e.pos}
			path := append(append([]chainStep(nil), cur.path...), step)
			if label, pos, ok := goal(next, cgEdge{}); ok {
				return append(path, chainStep{display: label, pos: pos})
			}
			if expand(next) {
				queue = append(queue, qent{id: next.id, path: path})
			}
		}
	}
	return nil
}

// renderChain formats a chain for a finding message and returns the
// display list for machine output.
func renderChain(rootDisplay string, chain []chainStep) (string, []string) {
	parts := []string{rootDisplay}
	displays := []string{rootDisplay}
	for i, s := range chain {
		part := s.display
		if i == len(chain)-1 && s.pos.IsValid() {
			part = fmt.Sprintf("%s (%s:%d)", s.display, s.pos.Filename, s.pos.Line)
		}
		parts = append(parts, part)
		displays = append(displays, s.display)
	}
	return strings.Join(parts, " → "), displays
}

// wallclockModulePass reports sim-facing functions that reach a
// host-clock read through helper packages outside the sim-facing scope.
// Direct reads (and reads through sim-facing helpers) are the
// per-package pass's findings; this pass covers exactly the chains that
// leave the scope, so every violation is reported once, at the call site
// that exits it.
func wallclockModulePass(mc *moduleCtx) {
	g := mc.graph
	inScope := func(rel string) bool { return contains(mc.scopes.simFacing, rel) }
	expand := func(n *cgNode) bool { return !inScope(n.pkgRel) }
	goal := func(n *cgNode, _ cgEdge) (string, token.Position, bool) {
		if n != nil && len(n.wallclock) > 0 {
			return n.wallclock[0].label, n.wallclock[0].pos, true
		}
		return "", token.Position{}, false
	}
	for _, id := range g.sortedNodeIDs() {
		root := g.nodes[id]
		if !inScope(root.pkgRel) {
			continue
		}
		for _, e := range root.edges {
			callee := g.nodes[e.callee]
			if callee == nil || inScope(callee.pkgRel) {
				continue
			}
			chain := g.searchFrom(e, expand, goal)
			if chain == nil {
				continue
			}
			chain[len(chain)-1].pos = mc.relPos(chain[len(chain)-1].pos)
			msg, displays := renderChain(root.display, chain)
			mc.report(e.pos, "wallclock",
				"transitively reads the host clock: "+msg+"; sim code must take time from the engine",
				displays)
		}
	}
}

// horizonModulePass reports shard event handlers that can reach a
// sim.Engine clock-control primitive. Handlers run inside a granted
// synchronization window; advancing or pumping the clock from one moves
// a shard past its horizon and desynchronizes the world.
func horizonModulePass(mc *moduleCtx) {
	g := mc.graph
	expand := func(*cgNode) bool { return true }
	goal := func(_ *cgNode, e cgEdge) (string, token.Position, bool) {
		if e.horizonBanned {
			return e.calleeDisplay, e.pos, true
		}
		return "", token.Position{}, false
	}
	for _, id := range g.sortedNodeIDs() {
		root := g.nodes[id]
		if !root.handlerRoot {
			continue
		}
		for _, e := range root.edges {
			chain := g.searchFrom(e, expand, goal)
			if chain == nil {
				continue
			}
			chain[len(chain)-1].pos = mc.relPos(chain[len(chain)-1].pos)
			msg, displays := renderChain(root.display, chain)
			mc.report(e.pos, "horizon",
				"shard event handler reaches engine clock control: "+msg+
					"; handlers run inside a granted window and must never advance the clock (DESIGN.md §16)",
				displays)
		}
	}
}
