package main

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// loadFixture type-checks testdata/fixture as one package and tags it
// with a Rel that puts every rule in force (internal/telemetry is in
// the wallclock scope, the floatsum scope, and not concurrency-exempt).
func loadFixture(t *testing.T) (*token.FileSet, *Package) {
	t.Helper()
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	dir := filepath.Join("testdata", "fixture")
	groups, err := parseDir(fset, dir, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 1 {
		t.Fatalf("fixture parsed into %d packages, want 1", len(groups))
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	imp := importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
	conf := types.Config{Importer: importerFrom{imp, dir}, Error: func(error) {}}
	if _, err := conf.Check("fixture", fset, groups[0], info); err != nil {
		t.Fatalf("type-checking fixture: %v", err)
	}
	return fset, &Package{ImportPath: "fixture", Rel: "internal/telemetry", Files: groups[0], Info: info}
}

// wantMarkers reads the fixture's expectations: every comment holding
// "WANT <rule>..." names the rules that must fire on its line.
func wantMarkers(t *testing.T, fset *token.FileSet, files []*ast.File) map[string]int {
	t.Helper()
	want := map[string]int{}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				_, tail, ok := strings.Cut(c.Text, "WANT ")
				if !ok {
					continue
				}
				tail = strings.TrimSuffix(strings.TrimSpace(tail), "*/")
				line := fset.Position(c.Pos()).Line
				for _, rule := range strings.Fields(tail) {
					if rule != "detlint" && analyzerByName(rule) == nil {
						t.Fatalf("%s:%d: marker names unknown rule %q", f.Name.Name, line, rule)
					}
					want[fmt.Sprintf("%s:%d:%s", filepath.Base(fset.Position(c.Pos()).Filename), line, rule)]++
				}
			}
		}
	}
	return want
}

// TestFixtureFindings runs all five analyzers plus the directive layer
// over the fixture package and demands an exact match with the WANT
// markers: every expected finding fires, nothing extra fires, allowed
// lines stay silent, and directive hygiene problems surface.
func TestFixtureFindings(t *testing.T) {
	fset, pkg := loadFixture(t)
	got := map[string]int{}
	for _, f := range lintPackage(fset, pkg, analyzers, true) {
		got[fmt.Sprintf("%s:%d:%s", filepath.Base(f.Pos.Filename), f.Pos.Line, f.Rule)]++
	}
	want := wantMarkers(t, fset, pkg.Files)
	for k, n := range want {
		if got[k] != n {
			t.Errorf("expected %d finding(s) at %s, got %d", n, k, got[k])
		}
	}
	for k, n := range got {
		if want[k] == 0 {
			t.Errorf("unexpected finding at %s (x%d)", k, n)
		}
	}
}

// loadXmod loads the miniature two-layer module under testdata/xmod —
// a second module whose internal/ layout mirrors the real tree, so the
// call-graph rules (which match package paths by module-relative
// suffix) run their real logic against it.
func loadXmod(t *testing.T) *Module {
	t.Helper()
	mod, err := loadModule(filepath.Join("testdata", "xmod"), false)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range mod.Errs {
		t.Error(e)
	}
	if t.Failed() {
		t.FailNow()
	}
	return mod
}

// xmodFindings runs the full v2 pipeline over the xmod module.
func xmodFindings(t *testing.T, workers int) []Finding {
	t.Helper()
	findings, err := lintModule(loadXmod(t), defaultScopes, analyzers, true, workers)
	if err != nil {
		t.Fatal(err)
	}
	return findings
}

// TestXmodGraphFindings proves the call graph propagates across package
// boundaries: the transitive-wallclock chain, both horizon shapes
// (named-method handler and literal handler) and the deadcode cases fire
// exactly where the WANT markers say, and nowhere else.
func TestXmodGraphFindings(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks a second module")
	}
	mod := loadXmod(t)
	findings, err := lintModule(mod, defaultScopes, analyzers, true, 1)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]int{}
	for _, f := range findings {
		got[fmt.Sprintf("%s:%d:%s", filepath.Base(f.Pos.Filename), f.Pos.Line, f.Rule)]++
	}
	want := map[string]int{}
	for _, pkg := range mod.Pkgs {
		for k, n := range wantMarkers(t, mod.Fset, pkg.Files) {
			want[k] += n
		}
	}
	for k, n := range want {
		if got[k] != n {
			t.Errorf("expected %d finding(s) at %s, got %d", n, k, got[k])
		}
	}
	for k, n := range got {
		if want[k] == 0 {
			t.Errorf("unexpected finding at %s (x%d)", k, n)
		}
	}
	// The transitive chain must be recorded on the finding for machine
	// output, and its last hop must name the clock primitive.
	for _, f := range findings {
		if f.Rule == "wallclock" {
			if len(f.Chain) < 3 || f.Chain[len(f.Chain)-1] != "time.Now" {
				t.Errorf("wallclock chain = %v, want root → helper → time.Now", f.Chain)
			}
		}
	}
}

// TestWorkersByteIdentical pins the parallel-analysis determinism
// contract: the rendered report is byte-identical at any worker count.
func TestWorkersByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks a second module")
	}
	render := func(findings []Finding) string {
		var sb strings.Builder
		if err := writeReport(&sb, "json", "xmod", analyzers, findings); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	one := render(xmodFindings(t, 1))
	eight := render(xmodFindings(t, 8))
	if one != eight {
		t.Fatalf("report differs between workers=1 and workers=8:\n%s\n---\n%s", one, eight)
	}
}

// TestEveryRuleFiresInFixture guards the fixtures themselves: a rule
// whose demonstration rotted away would otherwise pass vacuously. The
// single-package fixture covers the intra-package rules; the xmod
// module covers the call-graph rules (horizon fires nowhere in a single
// package by construction).
func TestEveryRuleFiresInFixture(t *testing.T) {
	fset, pkg := loadFixture(t)
	fired := map[string]bool{}
	for _, f := range lintPackage(fset, pkg, analyzers, true) {
		fired[f.Rule] = true
	}
	if !testing.Short() {
		for _, f := range xmodFindings(t, 1) {
			fired[f.Rule] = true
		}
	}
	for _, a := range analyzers {
		if a.Run == nil && testing.Short() {
			continue // module passes: only demonstrable cross-package; covered by xmod
		}
		if !fired[a.Name] {
			t.Errorf("rule %s fires nowhere in the fixtures", a.Name)
		}
	}
	if !fired["detlint"] {
		t.Error("directive hygiene (rule detlint) fires nowhere in the fixture")
	}
}

// TestRealTreeIsClean is the standing gate in test form: the module
// this linter lives in must lint clean, so `go test ./...` fails on a
// determinism violation even when make lint is skipped. The baseline may
// grandfather old findings but never a deadcode one: a test-only name is
// kept only through a directive that gives its reason.
func TestRealTreeIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	var stdout, stderr strings.Builder
	if code := runMain([]string{"./..."}, &stdout, &stderr); code != 0 {
		t.Fatalf("detlint over the real tree exited %d:\n%s%s", code, stdout.String(), stderr.String())
	}
	root, _, err := findModule(".")
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(root, baselineName))
	if os.IsNotExist(err) {
		return
	}
	if err != nil {
		t.Fatal(err)
	}
	var bf baselineFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	for _, e := range bf.Findings {
		if e.Rule == "deadcode" {
			t.Errorf("%s grandfathers deadcode finding %s in %s: delete the name or allow it with a reason",
				baselineName, e.ID, e.File)
		}
	}
}

// TestDeadcodeIgnoresTests pins that tests are never roots: linting the
// fixture module with its test files loaded reports the same deadcode
// findings as without them, though a test calls the dead function.
func TestDeadcodeIgnoresTests(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks a second module")
	}
	dead := func(tests bool) []string {
		mod, err := loadModule(filepath.Join("testdata", "xmod"), tests)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range mod.Errs {
			t.Fatal(e)
		}
		findings, err := lintModule(mod, defaultScopes, []*Analyzer{deadcodeAnalyzer}, false, 1)
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, f := range findings {
			out = append(out, fmt.Sprintf("%s:%d %s", f.File, f.Pos.Line, f.Msg))
		}
		return out
	}
	without, with := dead(false), dead(true)
	if len(without) == 0 || strings.Join(without, "\n") != strings.Join(with, "\n") {
		t.Fatalf("deadcode without tests:\n%s\nwith tests:\n%s",
			strings.Join(without, "\n"), strings.Join(with, "\n"))
	}
}

func TestSelectRules(t *testing.T) {
	if _, err := selectRules("wallclock,bogus"); err == nil {
		t.Error("unknown rule accepted")
	}
	rules, err := selectRules("maporder, floatsum")
	if err != nil || len(rules) != 2 || rules[0].Name != "maporder" || rules[1].Name != "floatsum" {
		t.Errorf("selectRules = %v, %v", rules, err)
	}
	all, err := selectRules("")
	if err != nil || len(all) != len(analyzers) {
		t.Errorf("empty spec should select all rules, got %d", len(all))
	}
}

func TestParseDirective(t *testing.T) {
	cases := []struct {
		text string
		ok   bool
	}{
		{"//detlint:allow wallclock — progress timer is host-facing", true},
		{"//detlint:allow wallclock,goroutine -- two rules, ascii dashes", true},
		{"//detlint:allow wallclock", false},         // no justification
		{"//detlint:allow", false},                   // no rule
		{"//detlint:allow flibber — no such", false}, // unknown rule
	}
	for _, c := range cases {
		d, err := parseDirective(c.text)
		if (err == nil) != c.ok {
			t.Errorf("parseDirective(%q) err = %v, want ok=%v", c.text, err, c.ok)
		}
		if c.ok && len(d.Rules) == 0 {
			t.Errorf("parseDirective(%q) lost its rules", c.text)
		}
	}
}

func TestRunMainBadFlags(t *testing.T) {
	var out, errw strings.Builder
	if code := runMain([]string{"-rules", "bogus"}, &out, &errw); code != 2 {
		t.Fatalf("unknown rule should exit 2, got %d", code)
	}
	if !strings.Contains(errw.String(), "unknown rule") {
		t.Fatalf("stderr = %q", errw.String())
	}
}
