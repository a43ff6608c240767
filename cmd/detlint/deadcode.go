package main

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// deadcodeAnalyzer keeps internal/ to what runs. A function, method,
// package-level variable or package-level constant declared in a non-test
// file under internal/ that no root reaches is reported: only tests use
// it, or nothing does, and it still costs every reader and every merge.
// The roots are
//
//   - main and init in every package the module holds, nested modules
//     such as bench/ included;
//   - functions and constants referenced from package-level variable
//     initializers (a command table, a registry) and constants used in
//     type declarations (an array length);
//   - methods named like a method of an interface the program can call
//     through: one the module declares or names (scenario.Detector,
//     vnet.Tap, error, rand.Source as rand.New's parameter), or one fmt
//     and errors look up behind the program's back (implicitIfaceMethods);
//   - functions, variables and constants carrying //detlint:allow deadcode —
//     <reason>. The directive suppresses the finding and makes the
//     declaration a root, so helpers only it calls need no directive of
//     their own; a directive on a declaration something else reaches is
//     unused, and so an error.
//
// Every reference counts as an edge, not just a call: a method value in
// a table, a method expression, a function passed as a value, a read or
// a write of a variable, a constant's use. A variable is a leaf: what its
// initializer references is a root already. A constant reaches the
// constants its value names, or, without a value, the ones its group's
// repeated value list names. Tests are never roots, so linting with
// -tests reports the same set. The facade is not reported here;
// TestFacadeExportsHaveCallers holds it to its callers.
var deadcodeAnalyzer = &Analyzer{
	Name:      "deadcode",
	Doc:       "forbid internal/ functions, variables and constants that no main, init, initializer or interface reaches",
	RunModule: deadcodeModulePass,
}

// implicitIfaceMethods are methods the standard library calls through
// interfaces the program never names: fmt's Stringer, GoStringer and
// Formatter, and the Unwrap, Is and As that errors.Is and errors.As
// look for.
var implicitIfaceMethods = []string{"String", "GoString", "Format", "Unwrap", "Is", "As"}

// deadcodeAllowLines returns the lines of f that carry an allow
// directive naming deadcode. Malformed directives are reported by the
// directive layer, not here.
func deadcodeAllowLines(fset *token.FileSet, f *ast.File) map[int]bool {
	lines := map[int]bool{}
	directives, _ := collectDirectives(fset, []*ast.File{f})
	for _, d := range directives {
		if contains(d.Rules, "deadcode") {
			lines[d.Pos.Line] = true
		}
	}
	return lines
}

// addRefNode records one production function declaration; its refs
// cover the signature too, where a constant can size an array. An init
// is not a node: several share one name, and each only roots what it
// references.
func (b *graphBuilder) addRefNode(f *ast.File, fd *ast.FuncDecl, fn *types.Func, allowed map[int]bool) {
	refs := b.pass.declRefs(fd)
	if fd.Recv == nil && fd.Name.Name == "init" {
		b.out.refRoots = append(b.out.refRoots, refs...)
		return
	}
	pos := b.pass.Fset.Position(fd.Pos())
	n := &refNode{
		id:      fn.FullName(),
		display: displayName(fn),
		pos:     pos,
		refs:    refs,
		main:    fd.Recv == nil && fd.Name.Name == "main" && f.Name.Name == "main",
		allowed: allowed[pos.Line] || allowed[pos.Line-1],
		report:  isInternal(b.rel),
	}
	if fd.Recv != nil {
		n.method = fd.Name.Name
	}
	b.out.refNodes = append(b.out.refNodes, n)
}

// addValueNodes records the package-level variables or constants one
// production var or const declaration declares. A directive covers a
// name on its line or the line above, as for a function's func keyword.
// A constant refers to the constants its value names; one without a
// value repeats its group's last value list (iota enums).
func (b *graphBuilder) addValueNodes(gd *ast.GenDecl, allowed map[int]bool) {
	var refs []string
	for _, spec := range gd.Specs {
		vs := spec.(*ast.ValueSpec)
		if gd.Tok == token.CONST && vs.Values != nil {
			refs = nil
			for _, v := range vs.Values {
				refs = append(refs, b.pass.declRefs(v)...)
			}
		}
		for _, name := range vs.Names {
			obj := b.pass.Info.Defs[name]
			if obj == nil || name.Name == "_" {
				continue
			}
			pos := b.pass.Fset.Position(name.Pos())
			b.out.refNodes = append(b.out.refNodes, &refNode{
				id:      objID(obj),
				display: obj.Pkg().Name() + "." + obj.Name(),
				pos:     pos,
				refs:    refs,
				allowed: allowed[pos.Line] || allowed[pos.Line-1],
				report:  isInternal(b.rel),
			})
		}
	}
}

// objID names a package-level variable or constant in the reference
// graph. It cannot collide with a function's FullName: one package scope
// holds them all.
func objID(o types.Object) string { return o.Pkg().Path() + "." + o.Name() }

// declRefs returns the IDs of every function and package-level variable
// and constant n references. A reference to a generic function or a
// method of a generic type resolves to its declaration.
func (p *Pass) declRefs(n ast.Node) []string {
	var out []string
	ast.Inspect(n, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			switch obj := p.Info.Uses[id].(type) {
			case *types.Func:
				out = append(out, obj.Origin().FullName())
			case *types.Var, *types.Const:
				if obj.Pkg() != nil && obj.Pkg().Scope().Lookup(obj.Name()) == obj {
					out = append(out, objID(obj))
				}
			}
		}
		return true
	})
	return out
}

// collectIfaceNames records the method names of every interface type f
// declares, names, or passes through a signature it uses: rand.New's
// rand.Source parameter makes Seed and Int63 roots.
func (b *graphBuilder) collectIfaceNames(f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := b.pass.objectOf(id); obj != nil {
				b.ifaceMethods(obj.Type())
			}
		}
		return true
	})
}

// ifaceMethods adds the methods of t if it is an interface, looking
// through named types, pointers, containers and signatures but not into
// structs.
func (b *graphBuilder) ifaceMethods(t types.Type) {
	if t == nil || b.seenTypes[t] {
		return
	}
	b.seenTypes[t] = true
	switch t := types.Unalias(t).(type) {
	case *types.Named:
		b.ifaceMethods(t.Underlying())
	case *types.Interface:
		for i := 0; i < t.NumMethods(); i++ {
			b.out.ifaceNames[t.Method(i).Name()] = true
		}
	case *types.Map:
		b.ifaceMethods(t.Key())
		b.ifaceMethods(t.Elem())
	case interface{ Elem() types.Type }: // pointer, slice, array, chan
		b.ifaceMethods(t.Elem())
	case *types.Signature:
		for _, tup := range []*types.Tuple{t.Params(), t.Results()} {
			for i := 0; i < tup.Len(); i++ {
				b.ifaceMethods(tup.At(i).Type())
			}
		}
	}
}

// deadcodeModulePass walks the reference graph from the roots and
// reports every internal/ function, variable and constant it does not
// reach. An allowed declaration is expanded like a root but counts as
// reached only when something else references it, so its directive is
// used exactly when nothing else keeps it.
func deadcodeModulePass(mc *moduleCtx) {
	g := mc.graph
	ids := make([]string, 0, len(g.refNodes))
	for id := range g.refNodes {
		ids = append(ids, id)
	}
	sort.Strings(ids)

	reached := map[string]bool{}
	expanded := map[string]bool{}
	var queue []string
	expand := func(id string) {
		if !expanded[id] && g.refNodes[id] != nil {
			expanded[id] = true
			queue = append(queue, id)
		}
	}
	reach := func(id string) {
		reached[id] = true
		expand(id)
	}
	for _, id := range g.refRoots {
		reach(id)
	}
	for _, id := range ids {
		n := g.refNodes[id]
		switch {
		case n.main || (n.method != "" && g.ifaceNames[n.method]):
			reach(id)
		case n.allowed:
			expand(id)
		}
	}
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		for _, r := range g.refNodes[id].refs {
			if r != id {
				reach(r)
			}
		}
	}
	for _, id := range ids {
		if n := g.refNodes[id]; n.report && !reached[id] {
			mc.report(n.pos, "deadcode",
				n.display+" is reached from no main: delete it, give it a caller, or keep it with //detlint:allow deadcode — <reason>",
				nil)
		}
	}
}
