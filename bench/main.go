// Command bench is the repository's benchmark. It times four workloads —
// the paper's detector (Figs. 5-6), its pre-copy live migration (Fig. 4),
// the million-op control-plane load and the 102,400-guest sharded world —
// end to end in host time, checks every output, and in a traced run
// charges CPU time to the simulator's layers. README.md has the details.
//
// Usage, from the root of the repository:
//
//	bash bench/run.sh [--workload all|detect,migration,...] [--seed N]
//	                  [--seconds S] [--trace 0|1] [--trace-dir DIR]
//	                  [--repeat N] [--quick]
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// config is one benchmark invocation.
type config struct {
	workloads []workloadDef
	seed      int64
	seconds   float64 // measured unit time per workload
	trace     bool
	traceDir  string
	quick     bool
}

const (
	// minUnits keeps a median (and, traced, one profiled and one plain
	// unit) even when --seconds is shorter than a few units.
	minUnits = 3
	// replyTimeout bounds the wait for one child reply; the slowest unit
	// takes a few seconds, so only a hung child reaches it.
	replyTimeout = 150 * time.Second
)

// metricDef names a metric and its unit.
type metricDef struct {
	name, unit string
}

// e2eMetrics are reported for every workload of an untraced run.
var e2eMetrics = []metricDef{
	{"unit_s", "s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MiB"},
}

// countMetrics are the per-layer work counts of a traced run, read off the
// first unit's result and telemetry.
var countMetrics = []metricDef{
	{"ksm.pages_scanned", "count"}, {"ksm.merges", "count"}, {"ksm.merge_per_scan", "ratio"},
	{"migrate.rounds", "count"}, {"migrate.pages", "count"}, {"migrate.wire_mb", "MiB"},
	{"vnet.flows", "count"}, {"vnet.flows_contended", "count"},
	{"kvm.vms_created", "count"},
	{"fleet.placements", "count"}, {"fleet.migrations", "count"},
	{"controlplane.jobs_submitted", "count"}, {"controlplane.jobs_succeeded", "count"},
	{"controlplane.rejects", "count"}, {"controlplane.accept_frac", "ratio"},
	{"loadgen.ops", "count"},
	{"shard.rounds", "count"}, {"shard.delivered", "count"}, {"shard.msgs_per_round", "ratio"},
	{"shard.delta_pages", "count"},
	{"mem.fork_spawns", "count"},
}

// callNames are the harness calls into the program; each becomes a
// call.<name>.s span metric.
var callNames = []string{
	"Figure5DetectionClean", "Figure6DetectionInfected", "Figure4Migration", "CloudLoad", "MegaStorm",
	"New", "fleet.New", "controlplane.New", "shard.NewGrid", "shard.Provision",
}

// perLayerMetrics are reported for every workload of a traced run.
func perLayerMetrics() []metricDef {
	var m []metricDef
	for _, b := range buckets {
		m = append(m, metricDef{b + ".cpu_s", "s"}, metricDef{b + ".cpu_samples", "count"})
	}
	m = append(m,
		metricDef{"process.cpu_s", "s"}, metricDef{"process.idle_frac", "ratio"},
		metricDef{"gc.alloc_mb", "MiB"}, metricDef{"gc.cycles", "count"}, metricDef{"gc.cpu_frac", "ratio"})
	m = append(m, countMetrics...)
	for _, c := range callNames {
		m = append(m, metricDef{"call." + c + ".s", "s"})
	}
	return append(m, metricDef{"trace.unit_s", "s"}, metricDef{"trace.overhead_frac", "ratio"})
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workloadFlag := fs.String("workload", "all", "detect, migration, cloudload, megastorm, a comma-separated list, or all")
	seed := fs.Int64("seed", 1, "input seed: measured unit i uses seed+i")
	seconds := fs.Float64("seconds", 15, "unit time to measure per workload (at least 3 units run)")
	trace := fs.Int("trace", 0, "1 for a traced run: CPU profiles, telemetry and spans, printing the per-layer metrics")
	traceDir := fs.String("trace-dir", filepath.Join(".bench_out", "trace"), "where a traced run writes profiles, spans.jsonl and layers.json")
	repeat := fs.Int("repeat", 1, "run the whole benchmark this many times (seeds seed, seed+1, ...) and print each end-to-end metric's spread")
	quick := fs.Bool("quick", false, "smoke scale: the quick experiment options and configs; outputs are checked but not against golden.json")
	childName := fs.String("child", "", "internal: serve one workload's units over stdin/stdout")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "bench: --trace must be 0 or 1")
		return 2
	}
	if *childName != "" {
		dir := ""
		if *trace == 1 {
			dir = *traceDir
		}
		if err := childMain(*childName, *quick, dir, os.Stdin, stdout); err != nil {
			fmt.Fprintf(stderr, "bench: %s child: %v\n", *childName, err)
			return 1
		}
		return 0
	}

	cfg := config{seed: *seed, seconds: *seconds, trace: *trace == 1, traceDir: *traceDir, quick: *quick}
	var err error
	if cfg.workloads, err = parseWorkloads(*workloadFlag); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	switch {
	case *seconds <= 0 || *repeat < 1:
		err = errors.New("--seconds must be positive and --repeat at least 1")
	case *repeat > 1 && cfg.trace:
		err = errors.New("--repeat calibrates the untraced metrics; run --trace 1 on its own")
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}

	res, err := benchmark(cfg, *repeat, stdout, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func parseWorkloads(spec string) ([]workloadDef, error) {
	if spec == "all" {
		return workloads, nil
	}
	var out []workloadDef
	for _, name := range strings.Split(spec, ",") {
		w, err := lookupWorkload(strings.TrimSpace(name))
		if err != nil {
			return nil, err
		}
		for _, seen := range out {
			if seen.name == w.name {
				return nil, fmt.Errorf("workload %s listed twice", w.name)
			}
		}
		out = append(out, w)
	}
	return out, nil
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// benchmark runs cfg repeat times and assembles the result: end-to-end
// metrics (medians over the repeats) for an untraced run, per-layer
// metrics for a traced one. With one workload the metric names are bare;
// with several each is prefixed by its workload.
func benchmark(cfg config, repeat int, stdout, stderr io.Writer) (result, error) {
	golden, err := loadGolden()
	if err != nil {
		return result{}, err
	}
	env := describeEnv()
	fmt.Fprintf(stdout, "env: %d CPUs, GOMAXPROCS %d, %d sweep workers, %s, cpu %q, commit %s\n",
		env.NumCPU, env.GOMAXPROCS, env.Workers, env.GoVersion, env.CPUModel, env.Commit)
	if cfg.trace {
		if err := os.MkdirAll(cfg.traceDir, 0o755); err != nil {
			return result{}, err
		}
	}

	res := result{Metrics: map[string]metric{}}
	var rounds [][]*workloadRun
	for r := 0; r < repeat; r++ {
		runs, err := runRound(cfg, cfg.seed+int64(r), golden)
		if err != nil {
			return result{}, err
		}
		for _, wr := range runs {
			printRun(stdout, wr, cfg.seed+int64(r), r == 0)
			for _, e := range wr.errors() {
				fmt.Fprintf(stderr, "bench: %s: %s\n", wr.Workload, e)
			}
			res.Attempted += wr.attempted()
			res.Failed += wr.failed()
		}
		rounds = append(rounds, runs)
	}
	res.Correct = res.Failed == 0
	printSimNote(stdout)

	name := func(w, m string) string {
		if len(cfg.workloads) == 1 {
			return m
		}
		return w + "." + m
	}
	if cfg.trace {
		layers, err := writeTrace(cfg.traceDir, rounds[0])
		if err != nil {
			return result{}, err
		}
		for i, wr := range rounds[0] {
			printLayers(stdout, wr.Workload, layers[i])
			for _, d := range perLayerMetrics() {
				res.Metrics[name(wr.Workload, d.name)] = metric{layers[i].Metrics[d.name], d.unit}
			}
		}
	} else {
		if repeat > 1 {
			fmt.Fprintf(stdout, "spread over %d runs (seeds %d..%d):\n", repeat, cfg.seed, cfg.seed+int64(repeat-1))
		}
		for i, w := range cfg.workloads {
			for _, d := range e2eMetrics {
				var vals []float64
				for _, runs := range rounds {
					vals = append(vals, runs[i].e2e()[d.name])
				}
				if repeat > 1 {
					printSpread(stdout, w.name+"."+d.name, d.unit, vals)
				}
				res.Metrics[name(w.name, d.name)] = metric{median(vals), d.unit}
			}
		}
	}

	record, err := json.Marshal(struct {
		Env    envInfo          `json:"env"`
		Rounds [][]*workloadRun `json:"rounds"`
	}{env, rounds})
	if err != nil {
		return result{}, err
	}
	fmt.Fprintf(stdout, "record: %s\n", record)
	return res, nil
}

func printRun(w io.Writer, r *workloadRun, seed int64, withSim bool) {
	units := scaledWalls(r.Units)
	q1, q3 := quartiles(units)
	e := r.e2e()
	fmt.Fprintf(w, "%s (seed %d): %d units, unit_s median %.4f s [q1 %.4f, q3 %.4f, min %.4f, max %.4f] "+
		"(wall %.4f s, host reference %.4f s against %.2f s nominal); "+
		"setup_s median %.5f s over %d probes (wall %.5f s); peak_rss_mb %.1f; failed %d/%d\n",
		r.Workload, seed, len(units), median(units), q1, q3, slices.Min(units), slices.Max(units),
		median(walls(r.Units)), median(refs(r.Units)), refNominalS,
		e["setup_s"], len(r.SetupS), median(r.SetupS), e["peak_rss_mb"], r.failed(), r.attempted())
	if withSim {
		for _, s := range r.Sim {
			fmt.Fprintf(w, "  %-28s %10.4f   paper: %s\n", s.Name, s.Value, s.Paper)
		}
	}
}

func printSimNote(w io.Writer) {
	fmt.Fprintln(w, "note: sim.* rows are simulated results of each workload's first measured unit, beside the paper's figures;"+
		" they are checks, not metrics. The model is calibrated to the paper and not validated on held-out data.")
}

func printSpread(w io.Writer, name, unit string, vals []float64) {
	var b strings.Builder
	for _, v := range vals {
		fmt.Fprintf(&b, " %.4f", v)
	}
	med := median(vals)
	q1, q3 := quartiles(vals)
	fmt.Fprintf(w, "  %-22s %s |%s | median %.4f min %.4f max %.4f, quartile spread %.1f%% of median\n",
		name, unit, b.String(), med, slices.Min(vals), slices.Max(vals), 100*ratio(q3-q1, med))
}

// envInfo describes the machine and build a run was made on.
type envInfo struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Workers    int    `json:"workers"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	Commit     string `json:"commit"`
}

func describeEnv() envInfo {
	e := envInfo{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Workers: sweepWorkers(),
		GoVersion: runtime.Version(), CPUModel: "unknown", Commit: "unknown"}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	// go build stamps the commit when it builds inside a git checkout.
	if bi, ok := debug.ReadBuildInfo(); ok {
		modified := false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				e.Commit = s.Value
			case "vcs.modified":
				modified = s.Value == "true"
			}
		}
		if modified {
			e.Commit += "+modified"
		}
	}
	return e
}

func walls(units []unitRecord) []float64 {
	out := make([]float64, len(units))
	for i, u := range units {
		out[i] = u.WallS
	}
	return out
}

func refs(units []unitRecord) []float64 {
	out := make([]float64, len(units))
	for i, u := range units {
		out[i] = u.RefS
	}
	return out
}

func peaks(units []unitRecord) []float64 {
	out := make([]float64, len(units))
	for i, u := range units {
		out[i] = u.PeakRSS
	}
	return out
}

func sorted(xs []float64) []float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return s
}

func median(xs []float64) float64 {
	s := sorted(xs)
	switch n := len(s); {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the first and third quartiles by the method Python's
// statistics.quantiles(xs, n=4) uses by default ("exclusive").
func quartiles(xs []float64) (float64, float64) {
	s := sorted(xs)
	ld := len(s)
	if ld < 2 {
		return median(s), median(s)
	}
	q := func(i int) float64 {
		m := ld + 1
		j := min(max(i*m/4, 1), ld-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(3)
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func mean(xs []float64) float64 { return ratio(sum(xs), float64(len(xs))) }

func ratio(n, d float64) float64 {
	if d == 0 {
		return 0
	}
	return n / d
}
