package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sampleBench = `goos: linux
goarch: amd64
pkg: cloudskulk
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkFigure5DetectNoNested 	       3	 565833912 ns/op	         0.9080 t0-us	        27.96 t1-us	20718797 B/op	   22528 allocs/op
BenchmarkFleetMigrationStorm-8   	       3	9304055008 ns/op	         1.000 coverage	328280840 B/op	   45814 allocs/op
PASS
ok  	cloudskulk	48.233s
`

func TestParseBenchOutput(t *testing.T) {
	rep, err := parse(strings.NewReader(sampleBench))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Goos != "linux" || rep.Goarch != "amd64" || rep.Pkg != "cloudskulk" {
		t.Fatalf("header = %q/%q/%q", rep.Goos, rep.Goarch, rep.Pkg)
	}
	if len(rep.Benchmarks) != 2 {
		t.Fatalf("parsed %d benchmarks, want 2", len(rep.Benchmarks))
	}
	b := rep.Benchmarks[0]
	if b.Name != "BenchmarkFigure5DetectNoNested" || b.Iterations != 3 {
		t.Fatalf("bench[0] = %+v", b)
	}
	if b.NsPerOp != 565833912 || b.BytesPerOp != 20718797 || b.AllocsPerOp != 22528 {
		t.Fatalf("bench[0] numbers = %+v", b)
	}
	if b.Metrics["t0-us"] != 0.908 || b.Metrics["t1-us"] != 27.96 {
		t.Fatalf("bench[0] custom metrics = %v", b.Metrics)
	}
	// The -8 GOMAXPROCS suffix is stripped for stable cross-machine names.
	if rep.Benchmarks[1].Name != "BenchmarkFleetMigrationStorm" {
		t.Fatalf("bench[1] name = %q", rep.Benchmarks[1].Name)
	}
}

func TestCompareComputesSpeedup(t *testing.T) {
	before := []Benchmark{
		{Name: "BenchmarkA", NsPerOp: 3000, BytesPerOp: 500},
		{Name: "BenchmarkGone", NsPerOp: 1},
	}
	after := []Benchmark{
		{Name: "BenchmarkA", NsPerOp: 1000, BytesPerOp: 100},
		{Name: "BenchmarkNew", NsPerOp: 42},
	}
	cmp := compare(before, after)
	if len(cmp) != 1 {
		t.Fatalf("got %d comparisons, want 1 (only benchmarks in both)", len(cmp))
	}
	c := cmp[0]
	if c.Name != "BenchmarkA" || c.Speedup != 3 || c.BytesDelta != -400 {
		t.Fatalf("comparison = %+v", c)
	}
}

func TestCheckFlagsRegressions(t *testing.T) {
	base := &Report{Benchmarks: []Benchmark{
		{Name: "BenchmarkA", NsPerOp: 1000},
		{Name: "BenchmarkB", NsPerOp: 1000},
	}}
	current := []Benchmark{
		{Name: "BenchmarkA", NsPerOp: 1050}, // +5%: fine at 10%
		{Name: "BenchmarkB", NsPerOp: 1200}, // +20%: regression
		{Name: "BenchmarkC", NsPerOp: 9999}, // not in baseline: ignored
	}
	fails := check(base, current, 10)
	if len(fails) != 1 || !strings.Contains(fails[0], "BenchmarkB") {
		t.Fatalf("check = %v, want one BenchmarkB regression", fails)
	}
	if fails := check(base, current, 25); len(fails) != 0 {
		t.Fatalf("check at 25%% = %v, want none", fails)
	}
}

// TestCheckFailsOnMissingBenchmark: a baseline benchmark absent from the
// run (renamed, or killed by b.Fatal before printing its line) fails the
// gate instead of passing silently.
func TestCheckFailsOnMissingBenchmark(t *testing.T) {
	dir := t.TempDir()
	var base bytes.Buffer
	if code := run(strings.NewReader(sampleBench), &base, os.Stderr, "", "", 10); code != 0 {
		t.Fatalf("plain run exit = %d", code)
	}
	basePath := filepath.Join(dir, "base.json")
	if err := os.WriteFile(basePath, base.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	var kept []string
	for _, line := range strings.Split(sampleBench, "\n") {
		if !strings.HasPrefix(line, "BenchmarkFleetMigrationStorm") {
			kept = append(kept, line)
		}
	}
	var sink bytes.Buffer
	if code := run(strings.NewReader(strings.Join(kept, "\n")), &sink, &sink, "", basePath, 50); code != 1 {
		t.Fatalf("check with a missing benchmark exit = %d, want 1 (output: %s)", code, sink.String())
	}
	if !strings.Contains(sink.String(), "MISSING BenchmarkFleetMigrationStorm") {
		t.Fatalf("output does not name the missing benchmark: %s", sink.String())
	}
}

// TestRunEndToEnd drives the whole pipeline: parse → baseline report →
// second run with -baseline embedding → -check gate both passing and
// failing.
func TestRunEndToEnd(t *testing.T) {
	dir := t.TempDir()

	var before bytes.Buffer
	if code := run(strings.NewReader(sampleBench), &before, os.Stderr, "", "", 10); code != 0 {
		t.Fatalf("plain run exit = %d", code)
	}
	basePath := filepath.Join(dir, "before.json")
	if err := os.WriteFile(basePath, before.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	// A faster "after" run.
	faster := strings.ReplaceAll(sampleBench, "565833912 ns/op", "200000000 ns/op")
	var out bytes.Buffer
	if code := run(strings.NewReader(faster), &out, os.Stderr, basePath, "", 10); code != 0 {
		t.Fatalf("baseline run exit = %d", code)
	}
	var rep Report
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Comparisons) != 2 || len(rep.Baseline) != 2 {
		t.Fatalf("report has %d comparisons / %d baseline rows, want 2/2",
			len(rep.Comparisons), len(rep.Baseline))
	}
	if s := rep.Comparisons[0].Speedup; s < 2.8 || s > 2.9 {
		t.Fatalf("speedup = %v, want ~2.83", s)
	}

	// Gate: the fast run against the slow baseline passes; the slow run
	// against a fast baseline fails.
	var sink bytes.Buffer
	if code := run(strings.NewReader(faster), &sink, &sink, "", basePath, 10); code != 0 {
		t.Fatalf("check of faster run exit = %d, want 0 (output: %s)", code, sink.String())
	}
	fastBase := filepath.Join(dir, "fast.json")
	var fastRep bytes.Buffer
	if code := run(strings.NewReader(faster), &fastRep, os.Stderr, "", "", 10); code != 0 {
		t.Fatal("building fast baseline failed")
	}
	if err := os.WriteFile(fastBase, fastRep.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	sink.Reset()
	if code := run(strings.NewReader(sampleBench), &sink, &sink, "", fastBase, 10); code != 1 {
		t.Fatalf("check of regressed run exit = %d, want 1 (output: %s)", code, sink.String())
	}
	if !strings.Contains(sink.String(), "REGRESSION") {
		t.Fatalf("regression output missing marker: %s", sink.String())
	}
}
