package main

import (
	"go/ast"
	"go/types"
)

// globalrandConstructors are the math/rand package-level functions that
// build an explicitly seeded generator rather than drawing from the
// process-global source.
var globalrandConstructors = map[string]bool{
	"New":        true,
	"NewSource":  true,
	"NewZipf":    true, // takes the *Rand it draws from
	"NewPCG":     true, // math/rand/v2
	"NewChaCha8": true, // math/rand/v2
}

// globalrandAnalyzer forbids the package-level math/rand functions
// (rand.Int, rand.Intn, rand.Seed, rand.Shuffle, ...) module-wide. The
// global source is shared process state: a draw anywhere perturbs every
// later draw, so two sweeps interleaved differently produce different
// numbers. Methods on a seeded generator threaded from the engine — its
// *sim.Rand, or a *rand.Rand built with rand.New — are the only legal
// randomness.
var globalrandAnalyzer = &Analyzer{
	Name: "globalrand",
	Doc:  "forbid package-level math/rand functions; thread seeded generators",
	Run: func(p *Pass) {
		for _, f := range p.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				path := p.pkgPathOf(sel.X)
				if path != "math/rand" && path != "math/rand/v2" {
					return true
				}
				// Only functions draw from the global source; selecting
				// a type (rand.Rand, rand.Source) is fine.
				if _, isFunc := p.objectOf(sel.Sel).(*types.Func); !isFunc {
					return true
				}
				if !globalrandConstructors[sel.Sel.Name] {
					p.report(sel.Pos(), "globalrand",
						"rand."+sel.Sel.Name+" draws from the process-global source; use the engine's seeded *sim.Rand")
				}
				return true
			})
		}
	},
}
