package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strings"
	"testing"
	"time"

	"cloudskulk/internal/mem"
)

// TestMain lets the test binary serve as the benchmark's child process, so
// the smoke test drives workloads through the real child protocol.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-child" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// benchmarkSpec is the part of the repository's BENCHMARK.json the smoke
// test checks the emitted metrics against.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// TestSmoke runs a few units of every workload at quick scale through the
// child protocol, untraced and traced, and checks that each workload emits
// exactly the metrics BENCHMARK.json names, with their units, and no
// failures.
func TestSmoke(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var have []string
	for _, w := range workloads {
		have = append(have, w.name)
	}
	if strings.Join(names, ",") != strings.Join(have, ",") {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", names, have)
	}

	for _, tc := range []struct {
		trace string
		want  []metricSpec
	}{{"0", spec.EndToEnd}, {"1", spec.PerLayer}} {
		dir := t.TempDir()
		var stdout, stderr strings.Builder
		start := time.Now()
		// The shortest run length still measures minUnits units.
		code := run([]string{"--quick", "--seconds", "0.001", "--seed", "3", "--trace", tc.trace, "--trace-dir", dir}, &stdout, &stderr)
		t.Logf("trace %s: %.1f s", tc.trace, time.Since(start).Seconds())
		if code != 0 {
			t.Fatalf("trace %s: exit %d\n%s%s", tc.trace, code, stdout.String(), stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("trace %s: last line is not the result: %v", tc.trace, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Fatalf("trace %s: correct %v, failed %d of %d", tc.trace, res.Correct, res.Failed, res.Attempted)
		}
		for _, w := range names {
			var got []string
			for name, m := range res.Metrics {
				if rest, ok := strings.CutPrefix(name, w+"."); ok {
					got = append(got, rest+" "+m.Unit)
				}
			}
			var want []string
			for _, m := range tc.want {
				want = append(want, m.Name+" "+m.Unit)
			}
			sort.Strings(got)
			sort.Strings(want)
			if strings.Join(got, ",") != strings.Join(want, ",") {
				t.Errorf("trace %s, %s: metrics\n  %v\nBENCHMARK.json names\n  %v", tc.trace, w, got, want)
			}
		}
		if tc.trace == "1" {
			for _, f := range []string{"layers.json", "spans.jsonl"} {
				if st, err := os.Stat(filepath.Join(dir, f)); err != nil || st.Size() == 0 {
					t.Errorf("traced run wrote no %s: %v", f, err)
				}
			}
		}
	}
}

// TestProfileChargesBusyLayer profiles a loop that spends its time in
// internal/mem and checks that the reader and the attribution charge the
// samples there.
func TestProfileChargesBusyLayer(t *testing.T) {
	s := mem.NewSpace("busy", 16<<20)
	s.FillRandom(rand.New(rand.NewSource(1)), 0.25)
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	var h uint64
	for deadline := time.Now().Add(time.Second); time.Now().Before(deadline); {
		h ^= s.RangeHash(0, s.NumPages())
	}
	pprof.StopCPUProfile()
	t.Logf("hash %x", h)

	p, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	charges := map[string]charge{}
	attribute(p, charges)
	// Samples without a Go stack (the race detector's runtime, for one)
	// land in other; of the rest, nearly all must be mem's.
	var charged int64
	for _, b := range buckets {
		if b != "other" {
			charged += charges[b].Samples
		}
	}
	if charged < 20 {
		t.Fatalf("only %d samples charged to a layer in a one-second busy loop: %v", charged, charges)
	}
	if got := charges["mem"].Samples; got*10 < charged*8 {
		t.Errorf("mem charged %d of %d layer samples, want at least 80%%: %v", got, charged, charges)
	}
}

func TestChargeTo(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		// Runtime and map work goes to the innermost layer frame.
		{[]string{"runtime.mapaccess2_fast64", "cloudskulk/internal/ksm.(*Daemon).ScanN", "cloudskulk/internal/experiments.Figure5DetectionClean"}, "ksm"},
		// Helper packages are charged to the layer that called them.
		{[]string{"cloudskulk/internal/telemetry.(*Counter).Add", "cloudskulk/internal/kvm.(*Hypervisor).CreateVM"}, "kvm"},
		{[]string{"cloudskulk/internal/runner.Map[go.shape.struct {}].func1", "runtime.goexit"}, "runner"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker", "runtime.goexit"}, "gc"},
		{[]string{"runtime.memmove", "main.main"}, "other"},
		{[]string{"cloudskulk/internal/hv/backends.init"}, "other"},
		{[]string{"cloudskulk/internal/memx.F"}, "other"},
		{nil, "other"},
	} {
		if got := chargeTo(c.stack); got != c.want {
			t.Errorf("chargeTo(%q) = %s, want %s", c.stack, got, c.want)
		}
	}
}

func TestParseProfileRejectsMalformedInput(t *testing.T) {
	for _, in := range [][]byte{
		{0x0a, 0x05, 0x01},       // length runs past the end
		{0x0b},                   // wire type 3 (groups) is not used by pprof
		{0x1f, 0x8b, 0x00, 0x00}, // truncated gzip
		{},                       // no sample types: not a CPU profile
	} {
		if _, err := parseProfile(in); err == nil {
			t.Errorf("parseProfile(%x) accepted malformed input", in)
		}
	}
}

// TestGoldenPins checks golden.json's integrity and that its megastorm and
// cloudload pins agree with the ones internal/experiments' golden tests
// hold for seeds 1 and 7.
func TestGoldenPins(t *testing.T) {
	g, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	experimentPins := map[string]string{
		"megastorm/1": "0508d1ebc507eb865e1b31636f17f9a5209fe19f6b1bbd237513d020c8b0761b",
		"megastorm/7": "617d17af82ac15b453dd6facd4d2c2981e33d7806e3be2a769d2824295ce4b19",
		"cloudload/1": "4b6856e4930c6b0449cd7500bdc72f67fdedf51db3a8dae331361ee08ed9cb30",
		"cloudload/7": "34a84ef5ac72941463fb6d65926858b500f249ec7180d44834c6386611a801fe",
	}
	perWorkload := map[string]int{}
	for _, p := range g.Pins {
		perWorkload[p.Workload]++
		key := p.Workload + "/" + map[int64]string{1: "1", 7: "7"}[p.Seed]
		if want, ok := experimentPins[key]; ok && p.SHA256 != want {
			t.Errorf("%s pin %s, internal/experiments pins %s", key, p.SHA256, want)
		}
	}
	for _, w := range workloads {
		if perWorkload[w.name] == 0 {
			t.Errorf("no pins for %s", w.name)
		}
	}

	pinned := g.Pins[0]
	if err := g.check(pinned.Workload, pinned.Seed, pinned.Text); err != nil {
		t.Errorf("pinned text fails its own pin: %v", err)
	}
	changed := strings.Replace(pinned.Text, "\n", "\nX", 2)
	err = g.check(pinned.Workload, pinned.Seed, changed)
	if err == nil || !strings.Contains(err.Error(), "first difference at line 2") {
		t.Errorf("changed output: %v, want a mismatch at line 2", err)
	}
}

// TestTimesAreScaledByHostRef checks that unit and set-up times are
// reported at nominal host speed: a unit measured while the host ran the
// reference work at half speed counts half its wall time.
func TestTimesAreScaledByHostRef(t *testing.T) {
	r := workloadRun{
		Units: []unitRecord{
			{WallS: 2, RefS: 2 * refNominalS},
			{WallS: 1, RefS: refNominalS},
			{WallS: 3, RefS: 2 * refNominalS},
		},
		SetupS:    []float64{0.4, 0.2, 0.3},
		SetupRefS: refNominalS / 2,
	}
	e := r.e2e()
	if e["unit_s"] != 1 {
		t.Errorf("unit_s = %v, want the median of 1, 1 and 1.5", e["unit_s"])
	}
	if e["setup_s"] != 0.6 {
		t.Errorf("setup_s = %v, want 0.6", e["setup_s"])
	}
	if tm := newHostRef().time(); tm <= 0 {
		t.Errorf("host reference took %v s", tm)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v, want 2.75, 8.25", q1, q3)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}
