// Command benchjson converts `go test -bench` output into structured JSON,
// so benchmark results can be committed (BENCH_*.json), diffed across PRs,
// and gated in CI.
//
// Modes:
//
//	go test -bench . -benchmem . | benchjson                  # parse to JSON
//	... | benchjson -baseline before.json -out BENCH_PR4.json # embed before/after + speedups
//	... | benchjson -check BENCH_PR4.json -threshold 10       # exit 1 on >10% ns/op regression
//
// -check compares the freshly parsed run against the "after" numbers of the
// committed baseline. Every baseline benchmark must appear in the run: one
// that was renamed, or that died in b.Fatal before printing its result
// line, fails the gate as MISSING. Benchmarks new in the run are ignored.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
)

// Benchmark is one parsed benchmark result line.
type Benchmark struct {
	Name        string             `json:"name"`
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  float64            `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64            `json:"allocs_per_op,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// Comparison pairs a benchmark with its baseline counterpart. Speedup is
// before/after in ns/op: > 1 means the new code is faster.
type Comparison struct {
	Name       string  `json:"name"`
	NsBefore   float64 `json:"ns_per_op_before"`
	NsAfter    float64 `json:"ns_per_op_after"`
	Speedup    float64 `json:"speedup"`
	BytesDelta float64 `json:"bytes_per_op_delta,omitempty"`
}

// Report is the emitted document.
type Report struct {
	Goos        string       `json:"goos,omitempty"`
	Goarch      string       `json:"goarch,omitempty"`
	CPU         string       `json:"cpu,omitempty"`
	Pkg         string       `json:"pkg,omitempty"`
	Benchmarks  []Benchmark  `json:"benchmarks"`
	Baseline    []Benchmark  `json:"baseline,omitempty"`
	Comparisons []Comparison `json:"comparisons,omitempty"`
}

// parse reads `go test -bench` output. Lines it does not recognise (test
// chatter, PASS/ok trailers) are ignored.
func parse(r io.Reader) (*Report, error) {
	rep := &Report{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			rep.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
			continue
		case strings.HasPrefix(line, "goarch:"):
			rep.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
			continue
		case strings.HasPrefix(line, "cpu:"):
			rep.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
			continue
		case strings.HasPrefix(line, "pkg:"):
			rep.Pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
			continue
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		b, ok := parseBenchLine(line)
		if !ok {
			continue
		}
		rep.Benchmarks = append(rep.Benchmarks, b)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return rep, nil
}

// parseBenchLine decodes one result line:
//
//	BenchmarkName-8   3   9304055008 ns/op   236.3 max-migration-s   328280840 B/op   45814 allocs/op
func parseBenchLine(line string) (Benchmark, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return Benchmark{}, false
	}
	name := fields[0]
	// Strip the -GOMAXPROCS suffix so names stay stable across machines.
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Benchmark{}, false
	}
	b := Benchmark{Name: name, Iterations: iters}
	// The rest is (value, unit) pairs. ParseFloat accepts NaN and ±Inf,
	// which no real bench run emits and json.Marshal refuses; reject the
	// line rather than producing an unencodable report.
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
			return Benchmark{}, false
		}
		switch unit := fields[i+1]; unit {
		case "ns/op":
			b.NsPerOp = v
		case "B/op":
			b.BytesPerOp = v
		case "allocs/op":
			b.AllocsPerOp = v
		default:
			if b.Metrics == nil {
				b.Metrics = map[string]float64{}
			}
			b.Metrics[unit] = v
		}
	}
	if b.NsPerOp == 0 && b.Metrics == nil && b.BytesPerOp == 0 {
		return Benchmark{}, false
	}
	return b, true
}

func loadReport(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}

func byName(bs []Benchmark) map[string]Benchmark {
	m := make(map[string]Benchmark, len(bs))
	for _, b := range bs {
		m[b.Name] = b
	}
	return m
}

// compare builds before/after rows for benchmarks present in both runs,
// preserving the current run's order.
func compare(baseline, current []Benchmark) []Comparison {
	base := byName(baseline)
	var out []Comparison
	for _, b := range current {
		prev, ok := base[b.Name]
		if !ok || prev.NsPerOp == 0 || b.NsPerOp == 0 {
			continue
		}
		out = append(out, Comparison{
			Name:       b.Name,
			NsBefore:   prev.NsPerOp,
			NsAfter:    b.NsPerOp,
			Speedup:    prev.NsPerOp / b.NsPerOp,
			BytesDelta: b.BytesPerOp - prev.BytesPerOp,
		})
	}
	return out
}

// check reports, in baseline order, each baseline benchmark that is
// missing from the current run or whose ns/op regressed more than
// threshold percent against the baseline's after-numbers.
func check(baseline *Report, current []Benchmark, thresholdPct float64) []string {
	cur := byName(current)
	var failures []string
	for _, prev := range baseline.Benchmarks {
		b, ok := cur[prev.Name]
		if !ok {
			failures = append(failures, fmt.Sprintf("MISSING %s: in the baseline but not in this run", prev.Name))
			continue
		}
		if prev.NsPerOp == 0 {
			continue
		}
		pct := (b.NsPerOp - prev.NsPerOp) / prev.NsPerOp * 100
		if pct > thresholdPct {
			failures = append(failures, fmt.Sprintf("REGRESSION %s: %.0f ns/op vs baseline %.0f (+%.1f%% > %.1f%%)",
				b.Name, b.NsPerOp, prev.NsPerOp, pct, thresholdPct))
		}
	}
	return failures
}

func run(in io.Reader, out io.Writer, errw io.Writer, baselinePath, checkPath string, threshold float64) int {
	rep, err := parse(in)
	if err != nil {
		fmt.Fprintln(errw, "benchjson:", err)
		return 2
	}
	if len(rep.Benchmarks) == 0 {
		fmt.Fprintln(errw, "benchjson: no benchmark lines found in input")
		return 2
	}
	if checkPath != "" {
		base, err := loadReport(checkPath)
		if err != nil {
			fmt.Fprintln(errw, "benchjson:", err)
			return 2
		}
		failures := check(base, rep.Benchmarks, threshold)
		for _, f := range failures {
			fmt.Fprintln(errw, f)
		}
		if len(failures) > 0 {
			return 1
		}
		fmt.Fprintf(errw, "benchjson: %d benchmark(s) within %.1f%% of %s\n",
			len(rep.Benchmarks), threshold, checkPath)
		return 0
	}
	if baselinePath != "" {
		base, err := loadReport(baselinePath)
		if err != nil {
			fmt.Fprintln(errw, "benchjson:", err)
			return 2
		}
		rep.Baseline = base.Benchmarks
		rep.Comparisons = compare(base.Benchmarks, rep.Benchmarks)
	}
	enc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(errw, "benchjson:", err)
		return 2
	}
	enc = append(enc, '\n')
	if _, err := out.Write(enc); err != nil {
		fmt.Fprintln(errw, "benchjson:", err)
		return 2
	}
	return 0
}

func main() {
	inPath := flag.String("in", "-", "bench output to parse (- for stdin)")
	outPath := flag.String("out", "-", "where to write the JSON report (- for stdout)")
	baseline := flag.String("baseline", "", "prior benchjson report; embeds before/after comparisons")
	checkPath := flag.String("check", "", "benchjson report to gate against; exits 1 on a regressed or missing benchmark")
	threshold := flag.Float64("threshold", 10, "max allowed ns/op regression percent for -check")
	flag.Parse()

	in := io.Reader(os.Stdin)
	if *inPath != "-" {
		f, err := os.Open(*inPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(2)
		}
		defer f.Close()
		in = f
	}
	out := io.Writer(os.Stdout)
	if *outPath != "-" {
		f, err := os.Create(*outPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(2)
		}
		defer f.Close()
		out = f
	}
	os.Exit(run(in, out, os.Stderr, *baseline, *checkPath, *threshold))
}
