package main

import (
	"go/ast"
	"go/types"
	"strings"
)

// seedflowAnalyzer is a taint-style provenance check on RNG seeds in
// sim-facing packages. Every artefact in this repository is a pure
// function of the root seed, which holds only if every generator in the
// tree is seeded from it: one rand.NewSource(42) buried in a helper
// makes two "different-seed" sweeps share a random stream, and a
// wallclock-derived seed makes the same sweep differ run to run.
//
// The rule examines the seed argument of every generator constructor
// (rand.NewSource, rand.NewPCG, rand.NewChaCha8, sim.NewRand, and the Seed
// method of a *rand.Rand or *sim.Rand) and demands visible derivation:
//
//   - a constant seed is reported outright (fixtures and tests are out
//     of scope by default, so a literal in lint scope is a real hazard);
//   - a seed expression containing a wallclock read is reported (the
//     wallclock rule fires on the read too; the seedflow finding names
//     the consequence);
//   - otherwise the expression must mention an approved source: an
//     identifier or field whose name contains "seed" (the root seed and
//     everything threaded from it follow the naming convention this rule
//     now pins), a call to runner.CellSeed, a draw from an existing
//     *rand.Rand or *sim.Rand, or the engine's RNG. An expression with no
//     approved source is reported as underived.
var seedflowAnalyzer = &Analyzer{
	Name: "seedflow",
	Doc:  "require RNG seeds in sim-facing code to derive from the root seed or runner.CellSeed",
	Run: func(p *Pass) {
		for _, f := range p.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				for _, arg := range seedArgs(p, call) {
					p.checkSeedExpr(arg)
				}
				return true
			})
		}
	},
}

// seedConstructors maps math/rand{,/v2} constructor names to how many
// leading arguments carry seed material.
var seedConstructors = map[string]int{
	"NewSource":  1,
	"NewPCG":     2,
	"NewChaCha8": 1,
}

// seedArgs returns the seed-carrying arguments of call, or nil when call
// is not a generator-seeding operation.
func seedArgs(p *Pass, call *ast.CallExpr) []ast.Expr {
	var name *ast.Ident
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		name = fun
	case *ast.SelectorExpr:
		if path := p.pkgPathOf(fun.X); path == "math/rand" || path == "math/rand/v2" {
			if n, ok := seedConstructors[fun.Sel.Name]; ok && len(call.Args) >= n {
				return call.Args[:n]
			}
			return nil
		}
		// Seed(v) on a *rand.Rand or *sim.Rand: re-seeding an existing
		// generator.
		if fun.Sel.Name == "Seed" && len(call.Args) == 1 && isSeededRand(p.typeOf(fun.X)) {
			return call.Args[:1]
		}
		name = fun.Sel
	default:
		return nil
	}
	// sim.NewRand(seed), the engine's generator, is seeded as
	// rand.NewSource is.
	if fn, ok := p.objectOf(name).(*types.Func); ok && len(call.Args) == 1 {
		if pkg, recv := funcHome(fn); fn.Name() == "NewRand" && recv == "" && pkgSuffix(pkg, "internal/sim") {
			return call.Args[:1]
		}
	}
	return nil
}

// checkSeedExpr classifies one seed expression.
func (p *Pass) checkSeedExpr(arg ast.Expr) {
	if tv, ok := p.Info.Types[arg]; ok && tv.Value != nil {
		p.report(arg.Pos(), "seedflow",
			"literal RNG seed; derive seeds from the root seed (runner.CellSeed or a threaded Seed field)")
		return
	}
	wallclock, approved := p.scanSeedSources(arg)
	switch {
	case wallclock != "":
		p.report(arg.Pos(), "seedflow",
			"RNG seed derived from "+wallclock+"; a wallclock seed changes every run — derive from the root seed")
	case !approved:
		p.report(arg.Pos(), "seedflow",
			"RNG seed does not visibly derive from the root seed; thread it from runner.CellSeed or a Seed field/parameter")
	}
}

// scanSeedSources walks a seed expression, reporting the first wallclock
// source it contains and whether any approved seed source appears.
func (p *Pass) scanSeedSources(arg ast.Expr) (wallclock string, approved bool) {
	ast.Inspect(arg, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if p.pkgPathOf(n.X) == "time" && wallclockBanned[n.Sel.Name] {
				wallclock = "time." + n.Sel.Name
				return true
			}
			if seedishName(n.Sel.Name) {
				approved = true
			}
			// A draw from an existing seeded generator, or the engine's
			// own RNG, inherits its provenance.
			if isSeededRand(p.typeOf(n.X)) {
				approved = true
			}
			if fn, ok := p.objectOf(n.Sel).(*types.Func); ok && isApprovedSeedFunc(fn) {
				approved = true
			}
		case *ast.Ident:
			if seedishName(n.Name) {
				approved = true
			}
		}
		return true
	})
	return wallclock, approved
}

// seedishName reports whether an identifier visibly carries seed
// material by the repository's naming convention.
func seedishName(name string) bool {
	return strings.Contains(strings.ToLower(name), "seed")
}

// isApprovedSeedFunc recognizes the two blessed seed-deriving calls:
// runner.CellSeed (the per-cell derivation rule every sweep uses) and
// sim.Engine.RNG (a draw from the engine's root-seeded stream).
func isApprovedSeedFunc(fn *types.Func) bool {
	pkg, recv := funcHome(fn)
	if fn.Name() == "CellSeed" && recv == "" && pkgSuffix(pkg, "internal/runner") {
		return true
	}
	if fn.Name() == "RNG" && recv == "Engine" && pkgSuffix(pkg, "internal/sim") {
		return true
	}
	return false
}

// isSeededRand reports whether t is a seeded generator: *math/rand.Rand,
// rand/v2's generators, or the engine's *sim.Rand.
func isSeededRand(t types.Type) bool {
	if t == nil {
		return false
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	pkg := named.Obj().Pkg().Path()
	if pkgSuffix(pkg, "internal/sim") {
		return named.Obj().Name() == "Rand"
	}
	if pkg != "math/rand" && pkg != "math/rand/v2" {
		return false
	}
	switch named.Obj().Name() {
	case "Rand", "PCG", "ChaCha8":
		return true
	}
	return false
}
