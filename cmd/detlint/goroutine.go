package main

import (
	"go/ast"
	"go/token"
	"strconv"
)

// goroutineAnalyzer forbids scheduler-dependent concurrency — go
// statements, channel operations, select, and the sync package —
// outside the package built for it (internal/runner's worker pool; see
// concurrencyExempt). Goroutine interleaving is the one source of
// nondeterminism the seed cannot reach, so sim code must stay
// single-threaded per cell.
//
// The `sync` import is reported once per file (the import is the
// gateway; annotating every mu.Lock would drown the signal), and
// sync/atomic is deliberately legal: commutative atomic counters reach
// the same totals under any interleaving, which is exactly the
// contract telemetry's determinism rests on.
var goroutineAnalyzer = &Analyzer{
	Name: "goroutine",
	Doc:  "forbid go statements, channels, select, and sync outside the runner's worker pool",
	Run: func(p *Pass) {
		for _, f := range p.Files {
			for _, imp := range f.Imports {
				if path, err := strconv.Unquote(imp.Path.Value); err == nil && path == "sync" {
					p.report(imp.Pos(), "goroutine",
						`import "sync" brings lock-order-dependent concurrency into sim code`)
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.GoStmt:
					p.report(n.Pos(), "goroutine",
						"go statement launches scheduler-ordered work in sim code")
				case *ast.SelectStmt:
					p.report(n.Pos(), "goroutine",
						"select races channel readiness; sim code must be single-threaded")
				case *ast.SendStmt:
					p.report(n.Pos(), "goroutine",
						"channel send in sim code; events belong on the engine queue")
				case *ast.UnaryExpr:
					if n.Op == token.ARROW {
						p.report(n.Pos(), "goroutine",
							"channel receive in sim code; events belong on the engine queue")
					}
				case *ast.ChanType:
					p.report(n.Pos(), "goroutine",
						"channel type in sim code; events belong on the engine queue")
				}
				return true
			})
		}
	},
}
