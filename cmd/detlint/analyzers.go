package main

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Finding is one rule violation at a position.
type Finding struct {
	Pos  token.Position
	Rule string
	Msg  string

	// File is the module-relative (slash-separated) path of Pos.Filename,
	// filled by the pipeline once the module root is known. It is what
	// machine-readable reports and stable IDs are keyed on: absolute
	// paths would make the baseline host-specific.
	File string
	// ID is the stable fingerprint of the finding (rule + file + source
	// line text + occurrence ordinal), independent of line numbers so
	// unrelated edits above a grandfathered finding do not churn the
	// baseline. Filled by assignFindingIDs.
	ID string
	// Chain is the call chain for call-graph findings (caller first,
	// primitive last); empty for single-function findings.
	Chain []string
	// Baselined marks a finding whose ID is grandfathered in the
	// committed baseline: reported in machine output, excluded from the
	// exit-status decision.
	Baselined bool
}

// Pass is one analyzer's view of one type-checked package.
type Pass struct {
	Fset   *token.FileSet
	Files  []*ast.File
	Info   *types.Info
	report func(pos token.Pos, rule, msg string)
}

// Analyzer is one determinism rule. A rule can have a per-package pass
// (Run), a whole-module call-graph pass (RunModule), or both: wallclock
// flags direct host-clock reads package by package and then walks the
// call graph for sim-facing code that reaches the clock through helper
// packages a single-package scan cannot see.
type Analyzer struct {
	Name      string
	Doc       string
	Run       func(p *Pass)
	RunModule func(mc *moduleCtx)
}

// analyzers lists every rule, in the order findings are attributed.
var analyzers = []*Analyzer{
	wallclockAnalyzer,
	globalrandAnalyzer,
	maporderAnalyzer,
	goroutineAnalyzer,
	floatsumAnalyzer,
	horizonAnalyzer,
	seedflowAnalyzer,
	hotpathAnalyzer,
	errwrapAnalyzer,
	deadcodeAnalyzer,
}

func analyzerByName(name string) *Analyzer {
	for _, a := range analyzers {
		if a.Name == name {
			return a
		}
	}
	return nil
}

func ruleNames() []string {
	out := make([]string, 0, len(analyzers))
	for _, a := range analyzers {
		out = append(out, a.Name)
	}
	return out
}

// pkgPathOf returns the import path of the package a selector base
// references ("time" in time.Now), or "" when the expression is not a
// package qualifier.
func (p *Pass) pkgPathOf(e ast.Expr) string {
	id, ok := e.(*ast.Ident)
	if !ok {
		return ""
	}
	pn, ok := p.Info.Uses[id].(*types.PkgName)
	if !ok {
		return ""
	}
	return pn.Imported().Path()
}

// typeOf is Info.TypeOf, nil-safe on expressions the checker skipped.
func (p *Pass) typeOf(e ast.Expr) types.Type {
	if e == nil {
		return nil
	}
	return p.Info.TypeOf(e)
}

// isMapType reports whether t's underlying type is a map.
func isMapType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// isFloatType reports whether t's underlying type is a float.
func isFloatType(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// objectOf resolves an identifier to its object via Uses then Defs.
func (p *Pass) objectOf(id *ast.Ident) types.Object {
	if o := p.Info.Uses[id]; o != nil {
		return o
	}
	return p.Info.Defs[id]
}

// eachFunc visits every function body in the package exactly once,
// innermost-function ownership: statements of a nested FuncLit belong
// to the FuncLit's visit, not its enclosing function's.
func (p *Pass) eachFunc(fn func(body *ast.BlockStmt)) {
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					fn(n.Body)
				}
			case *ast.FuncLit:
				fn(n.Body)
			}
			return true
		})
	}
}

// inspectShallow walks n without descending into nested function
// literals, so statement-level analyses stay scoped to one function.
func inspectShallow(n ast.Node, fn func(ast.Node) bool) {
	ast.Inspect(n, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		return fn(n)
	})
}
