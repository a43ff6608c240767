// Command detlint is this repository's determinism linter: a static-
// analysis pass over the whole module that enforces, structurally, the
// invariant every experiment artefact depends on — simulation code is a
// pure function of the seed. The golden-hash tests catch a determinism
// break after the fact; detlint rejects the code shapes that cause one
// before it is ever run.
//
// Ten rules (see DESIGN.md §12 and §17 for the failure mode behind
// each):
//
//	wallclock  — no time.Now/Since/Sleep/... in sim-facing packages —
//	             not even transitively through helper packages (the
//	             cross-package call graph reports the full chain);
//	             virtual time comes from the engine.
//	globalrand — no package-level math/rand functions anywhere; only
//	             seeded generators (the engine's *sim.Rand) threaded
//	             from the engine.
//	maporder   — no map iteration that feeds an artefact/export sink
//	             (fmt.Fprint*, strings.Builder/bytes.Buffer writes, or a
//	             returned slice) without an intervening sort, and no map
//	             arguments to fmt formatting verbs.
//	goroutine  — no go statements, channels, select, or `sync` imports
//	             outside internal/runner (the worker pool). sync/atomic
//	             is permitted: commutative counters are order-blind.
//	floatsum   — no float accumulation across map iteration in the
//	             telemetry/report export packages.
//	horizon    — no sim.Engine clock control (Advance/Run/RunUntil/
//	             RunBefore/RunFor/Step) reachable, through the call
//	             graph, from a shard event handler: handlers run inside
//	             a granted synchronization window (DESIGN.md §16).
//	seedflow   — every RNG seed in sim-facing code must visibly derive
//	             from the root seed (a seed-named identifier,
//	             runner.CellSeed, or a draw from a seeded generator);
//	             literal and wallclock seeds are reported.
//	hotpath    — functions annotated //detlint:hotpath (the PR-4
//	             zero-alloc contract) must not contain allocating code
//	             shapes: closures, &T{...}, map/slice literals,
//	             make/new, or appends to freshly-allocated slices.
//	errwrap    — in internal/ packages, error causes survive: %w (not
//	             %v) in fmt.Errorf, errors.Is (not ==) for comparison,
//	             and no decisions on err.Error() text.
//	deadcode   — no function, method, package-level variable or
//	             package-level constant in internal/ that no main,
//	             init, package-level initializer or callable interface
//	             reaches through the reference graph: a name only
//	             tests use is deleted, or kept with an allow that says
//	             why (and that makes it a root for what it uses).
//
// A violation that is legitimate is annotated, never silently exempt:
//
//	//detlint:allow <rule>[,<rule>] — <one-line justification>
//
// on (or immediately above) the offending line. A directive without a
// justification, with an unknown rule name, or that suppresses nothing
// is itself an error, so the annotation inventory stays honest.
//
// Usage:
//
//	detlint [-tests] [-rules wallclock,maporder] [-workers N]
//	        [-format text|json|sarif] [-out FILE]
//	        [-baseline FILE] [-write-baseline] [./...]
//
// detlint always lints every package of the enclosing module; package
// patterns are accepted for go-vet familiarity but only select the
// module via their directory part. Analysis fans out per package over
// internal/runner's deterministic pool; output is byte-identical at
// any -workers value. Findings carry stable DL-<fnv64a> IDs (hashed
// from rule, file, and the violating line's text, so unrelated edits
// do not churn them); IDs present in the committed
// .detlint-baseline.json are reported but not fatal. Exit status:
// 0 clean (or all findings baselined), 1 new findings, 2 load/usage
// error.
package main

import (
	"flag"
	"fmt"
	"go/token"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"cloudskulk/internal/runner"
)

// scopes binds each scoped rule to the module-relative package paths it
// is in force for. The defaults describe this repository; fixture tests
// reuse the same values because the fixture module mirrors the real
// tree's internal/ layout.
type scopes struct {
	// simFacing lists the packages whose code must never read the host
	// clock or seed randomness outside the root-seed flow: everything
	// that runs inside a simulation, plus internal/runner — the sweep
	// pool all experiments route through, whose one legitimate
	// wall-clock use (progress reporting to a human) carries an allow
	// directive rather than a blanket exemption.
	simFacing []string
	// concurrencyExempt lists the only packages allowed to spawn
	// goroutines or use sync/channels: the parallel sweep runner, whose
	// whole job is deterministic fan-out.
	concurrencyExempt []string
	// floatsumScope lists the export-path packages where float
	// accumulation order turns into artefact bytes.
	floatsumScope []string
}

var defaultScopes = &scopes{
	simFacing: []string{
		"internal/sim", "internal/cpu", "internal/kvm", "internal/ksm",
		"internal/mem", "internal/migrate", "internal/vnet", "internal/qemu",
		"internal/fleet", "internal/telemetry", "internal/experiments",
		"internal/detect", "internal/workload", "internal/runner",
		"internal/hv", "internal/hv/backends",
		"internal/controlplane", "internal/loadgen", "internal/scenario",
		"internal/shard",
	},
	concurrencyExempt: []string{"internal/runner"},
	floatsumScope:     []string{"internal/telemetry", "internal/report"},
}

func contains(list []string, s string) bool {
	for _, v := range list {
		if v == s {
			return true
		}
	}
	return false
}

// isInternal reports whether the module-relative package path lies under
// internal/.
func isInternal(rel string) bool {
	return rel == "internal" || strings.HasPrefix(rel, "internal/")
}

// applies reports whether a rule's per-package pass is in force for the
// package at the given module-relative path. horizon and deadcode have no
// per-package pass (they are pure call-graph analysis), so they never
// appear here.
func (s *scopes) applies(rule, rel string) bool {
	switch rule {
	case "wallclock", "seedflow":
		return contains(s.simFacing, rel)
	case "goroutine":
		return !contains(s.concurrencyExempt, rel)
	case "floatsum":
		return contains(s.floatsumScope, rel)
	case "errwrap":
		return isInternal(rel)
	default: // globalrand, maporder, hotpath: module-wide
		return true
	}
}

func main() {
	os.Exit(runMain(os.Args[1:], os.Stdout, os.Stderr))
}

func runMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("detlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	tests := fs.Bool("tests", false, "also lint _test.go files")
	rulesFlag := fs.String("rules", "", "comma-separated subset of rules to run (default: all)")
	workers := fs.Int("workers", 0, "parallel analysis workers (0 = GOMAXPROCS); output is byte-identical at any count")
	format := fs.String("format", "text", "report format: text, json, or sarif")
	outPath := fs.String("out", "", "also write a machine-readable report (json unless -format says otherwise) to this file")
	baselinePath := fs.String("baseline", "", "baseline file of grandfathered finding IDs (default: <module>/"+baselineName+")")
	writeBase := fs.Bool("write-baseline", false, "record current findings as the new baseline and exit 0")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *format != "text" && *format != "json" && *format != "sarif" {
		fmt.Fprintf(stderr, "detlint: unknown -format %q (have text, json, sarif)\n", *format)
		return 2
	}

	enabled, err := selectRules(*rulesFlag)
	if err != nil {
		fmt.Fprintln(stderr, "detlint:", err)
		return 2
	}
	allRules := len(enabled) == len(analyzers)

	start := "."
	if fs.NArg() > 0 {
		start = strings.TrimSuffix(fs.Arg(0), "...")
		start = strings.TrimSuffix(start, string(filepath.Separator))
		if start == "" || start == "."+string(filepath.Separator) {
			start = "."
		}
	}
	mod, err := loadModule(start, *tests)
	if err != nil {
		fmt.Fprintln(stderr, "detlint:", err)
		return 2
	}
	if len(mod.Errs) > 0 {
		for _, e := range mod.Errs {
			fmt.Fprintln(stderr, "detlint:", e)
		}
		return 2
	}

	findings, err := lintModule(mod, defaultScopes, enabled, allRules, *workers)
	if err != nil {
		fmt.Fprintln(stderr, "detlint:", err)
		return 2
	}

	if *writeBase {
		path := *baselinePath
		if path == "" {
			path = filepath.Join(mod.Root, baselineName)
		}
		if err := writeBaseline(path, findings); err != nil {
			fmt.Fprintln(stderr, "detlint:", err)
			return 2
		}
		fmt.Fprintf(stderr, "detlint: wrote %d finding(s) to %s\n", len(findings), path)
		return 0
	}

	basePath := *baselinePath
	if basePath == "" {
		basePath = filepath.Join(mod.Root, baselineName)
	}
	baseIDs, err := loadBaseline(basePath)
	if err != nil {
		fmt.Fprintln(stderr, "detlint:", err)
		return 2
	}
	fresh := markBaselined(findings, baseIDs)

	if *format == "text" {
		for _, f := range findings {
			suffix := ""
			if f.Baselined {
				suffix = " [baselined]"
			}
			fmt.Fprintf(stdout, "%s:%d:%d: %s: %s%s\n", f.File, f.Pos.Line, f.Pos.Column, f.Rule, f.Msg, suffix)
		}
	} else {
		if err := writeReport(stdout, *format, mod.Name, enabled, findings); err != nil {
			fmt.Fprintln(stderr, "detlint:", err)
			return 2
		}
	}
	if *outPath != "" {
		reportFormat := *format
		if reportFormat == "text" {
			reportFormat = "json"
		}
		var buf strings.Builder
		if err := writeReport(&buf, reportFormat, mod.Name, enabled, findings); err != nil {
			fmt.Fprintln(stderr, "detlint:", err)
			return 2
		}
		if err := os.WriteFile(*outPath, []byte(buf.String()), 0o644); err != nil {
			fmt.Fprintln(stderr, "detlint:", err)
			return 2
		}
	}
	if fresh > 0 {
		fmt.Fprintf(stderr, "detlint: %d finding(s) (%d baselined) in %d package(s)\n",
			len(findings), len(findings)-fresh, len(mod.Pkgs))
		return 1
	}
	if len(findings) > 0 {
		fmt.Fprintf(stderr, "detlint: all %d finding(s) baselined; run -write-baseline after fixing to shrink the grandfather list\n",
			len(findings))
	}
	return 0
}

// lintModule is the v2 pipeline: per-package rule passes and call-graph
// node construction fan out across the runner pool (each cell owns one
// package, so cells share no mutable state), then the module passes walk
// the merged graph serially, then directives are matched per package.
// Output is byte-identical at any worker count: cells are collected in
// package order and every module pass iterates the graph in sorted
// order.
func lintModule(mod *Module, sc *scopes, enabled []*Analyzer, checkUnused bool, workers int) ([]Finding, error) {
	type cell struct {
		findings []Finding
		graph    *pkgGraph
	}
	cells, err := runner.Map(len(mod.Pkgs), runner.Options{Workers: workers},
		func(i int) (cell, error) {
			pkg := mod.Pkgs[i]
			return cell{
				findings: runIntraRules(mod.Fset, pkg, sc, enabled),
				graph:    buildGraphNodes(mod.Fset, pkg),
			}, nil
		})
	if err != nil {
		return nil, err
	}

	perPkg := make([]*pkgGraph, len(cells))
	raw := make([][]Finding, len(cells))
	fileToPkg := map[string]int{}
	for i, c := range cells {
		perPkg[i], raw[i] = c.graph, c.findings
		for _, f := range mod.Pkgs[i].Files {
			fileToPkg[mod.Fset.Position(f.Package).Filename] = i
		}
	}

	graph := mergeGraph(perPkg)
	relativize := func(pos token.Position) token.Position {
		if rel, err := filepath.Rel(mod.Root, pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
			pos.Filename = filepath.ToSlash(rel)
		}
		return pos
	}
	mc := &moduleCtx{
		graph:  graph,
		scopes: sc,
		relPos: relativize,
		report: func(pos token.Position, rule, msg string, chain []string) {
			i, ok := fileToPkg[pos.Filename]
			if !ok {
				return
			}
			raw[i] = append(raw[i], Finding{Pos: pos, Rule: rule, Msg: msg, Chain: chain})
		},
	}
	for _, a := range enabled {
		if a.RunModule != nil {
			a.RunModule(mc)
		}
	}

	var findings []Finding
	for i, pkg := range mod.Pkgs {
		findings = append(findings, applyDirectives(mod.Fset, pkg, raw[i], checkUnused)...)
	}
	for i := range findings {
		findings[i].File = relativize(findings[i].Pos).Filename
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		return a.Msg < b.Msg
	})
	assignFindingIDs(findings, mod.Root)
	return findings, nil
}

// selectRules resolves the -rules flag to a set of analyzers.
func selectRules(spec string) ([]*Analyzer, error) {
	if spec == "" {
		return analyzers, nil
	}
	var out []*Analyzer
	for _, name := range strings.Split(spec, ",") {
		name = strings.TrimSpace(name)
		a := analyzerByName(name)
		if a == nil {
			return nil, fmt.Errorf("unknown rule %q (have %s)", name, strings.Join(ruleNames(), ", "))
		}
		out = append(out, a)
	}
	return out, nil
}

// runIntraRules runs the per-package passes of the enabled analyzers
// that are in force for pkg's module-relative path, returning raw
// findings (directives not yet applied).
func runIntraRules(fset *token.FileSet, pkg *Package, sc *scopes, enabled []*Analyzer) []Finding {
	var raw []Finding
	pass := &Pass{
		Fset:  fset,
		Files: pkg.Files,
		Info:  pkg.Info,
		report: func(pos token.Pos, rule, msg string) {
			raw = append(raw, Finding{Pos: fset.Position(pos), Rule: rule, Msg: msg})
		},
	}
	for _, a := range enabled {
		if a.Run != nil && sc.applies(a.Name, pkg.Rel) {
			a.Run(pass)
		}
	}
	return raw
}

// applyDirectives matches a package's allow directives against its raw
// findings (both per-package and module-pass findings attributed to it)
// and reports directive hygiene problems. checkUnused is false when only
// a subset of rules ran — a directive for a disabled rule is not
// "unused", it just was not exercised.
func applyDirectives(fset *token.FileSet, pkg *Package, raw []Finding, checkUnused bool) []Finding {
	directives, bad := collectDirectives(fset, pkg.Files)
	out := bad
	for _, f := range raw {
		if d := matchDirective(directives, f); d != nil {
			d.Used = true
			continue
		}
		out = append(out, f)
	}
	if checkUnused {
		for _, d := range directives {
			if !d.Used {
				out = append(out, Finding{
					Pos:  d.Pos,
					Rule: "detlint",
					Msg: fmt.Sprintf("unused //detlint:allow %s — nothing to suppress here",
						strings.Join(d.Rules, ",")),
				})
			}
		}
	}
	return out
}

// lintPackage is the single-package pipeline the fixture tests drive:
// intra rules under the default scopes, then directive matching. Module
// (call-graph) passes need lintModule.
func lintPackage(fset *token.FileSet, pkg *Package, enabled []*Analyzer, checkUnused bool) []Finding {
	return applyDirectives(fset, pkg, runIntraRules(fset, pkg, defaultScopes, enabled), checkUnused)
}
