package cloudskulk_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"cloudskulk"
	"cloudskulk/internal/cpu"
	"cloudskulk/internal/experiments"
	"cloudskulk/internal/mem"
	"cloudskulk/internal/stats"
)

// Each benchmark regenerates one of the paper's tables or figures at the
// paper's scale (1 GiB guests, the paper's parameters) and reports the
// headline numbers via b.ReportMetric, so `go test -bench` output doubles
// as the reproduction record. ns/op measures how long the simulation
// takes to produce the artefact, not the simulated quantity itself.

func benchOptions(i int) cloudskulk.ExperimentOptions {
	o := cloudskulk.DefaultExperimentOptions()
	o.Seed = int64(i + 1)
	o.Runs = 1 // each b.N iteration is one full run with a fresh seed
	return o
}

// BenchmarkTable1CVEInventory regenerates Table I.
func BenchmarkTable1CVEInventory(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := cloudskulk.Table1CVE()
		if res.Render() == "" {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkFigure2KernelCompile regenerates Fig. 2 and reports the mean
// compile time per level in simulated seconds.
func BenchmarkFigure2KernelCompile(b *testing.B) {
	var l0, l1, l2 float64
	for i := 0; i < b.N; i++ {
		res, err := cloudskulk.Figure2KernelCompile(benchOptions(i))
		if err != nil {
			b.Fatal(err)
		}
		l0, l1, l2 = stats.Mean(res.Seconds[cpu.L0]), stats.Mean(res.Seconds[cpu.L1]), stats.Mean(res.Seconds[cpu.L2])
	}
	b.ReportMetric(l0, "L0-ccache-s")
	b.ReportMetric(l1, "L1-s")
	b.ReportMetric(l2, "L2-s")
	b.ReportMetric((l2/l1-1)*100, "L2-over-L1-%")
}

// BenchmarkFigure3Netperf regenerates Fig. 3 and reports Mbit/s per level.
func BenchmarkFigure3Netperf(b *testing.B) {
	var l0, l1, l2 float64
	for i := 0; i < b.N; i++ {
		o := benchOptions(i)
		o.Runs = 5 // the paper averages 5 netperf runs
		res, err := cloudskulk.Figure3Netperf(o)
		if err != nil {
			b.Fatal(err)
		}
		l0, l1, l2 = stats.Mean(res.Mbps[cpu.L0]), stats.Mean(res.Mbps[cpu.L1]), stats.Mean(res.Mbps[cpu.L2])
	}
	b.ReportMetric(l0, "L0-Mbps")
	b.ReportMetric(l1, "L1-Mbps")
	b.ReportMetric(l2, "L2-Mbps")
}

// BenchmarkFigure4MigrationTiming regenerates Fig. 4 and reports the
// nested (L0-L1) end-to-end times for the three workloads — the paper's
// ~26 s / ~29 s / ~820 s install-time row.
func BenchmarkFigure4MigrationTiming(b *testing.B) {
	var idle, fb, kc, idleFlat float64
	for i := 0; i < b.N; i++ {
		res, err := cloudskulk.Figure4Migration(benchOptions(i))
		if err != nil {
			b.Fatal(err)
		}
		cell := func(w string, k experiments.MigrationKind) float64 {
			c, ok := res.Cell(w, k)
			if !ok || len(c.Seconds) == 0 {
				b.Fatalf("missing cell %s/%s", w, k)
			}
			return c.Seconds[0]
		}
		idle = cell("idle", "L0-L1")
		fb = cell("filebench", "L0-L1")
		kc = cell("kernel-compile", "L0-L1")
		idleFlat = cell("idle", "L0-L0")
	}
	b.ReportMetric(idle, "idle-L0L1-s")
	b.ReportMetric(fb, "filebench-L0L1-s")
	b.ReportMetric(kc, "compile-L0L1-s")
	b.ReportMetric(idleFlat, "idle-L0L0-s")
}

// BenchmarkTable2LmbenchArith regenerates Table II and reports the L2
// integer-divide latency (paper: 6.14 ns).
func BenchmarkTable2LmbenchArith(b *testing.B) {
	var intDivL2 float64
	for i := 0; i < b.N; i++ {
		res := cloudskulk.Table2Arithmetic(benchOptions(i))
		for j, op := range res.Ops {
			if op == "integer div" {
				intDivL2 = res.Nanos[cpu.L2][j]
			}
		}
	}
	b.ReportMetric(intDivL2, "int-div-L2-ns")
}

// BenchmarkTable3LmbenchProc regenerates Table III and reports the L2
// pipe latency and fork+exit (paper: 65.49 µs and 242.19 µs).
func BenchmarkTable3LmbenchProc(b *testing.B) {
	var pipeL2, forkL2 float64
	for i := 0; i < b.N; i++ {
		res := cloudskulk.Table3Processes(benchOptions(i))
		for j, op := range res.Ops {
			switch op {
			case "pipe latency":
				pipeL2 = res.Micros[cpu.L2][j]
			case "fork+ exit":
				forkL2 = res.Micros[cpu.L2][j]
			}
		}
	}
	b.ReportMetric(pipeL2, "pipe-L2-us")
	b.ReportMetric(forkL2, "fork-L2-us")
}

// BenchmarkTable4LmbenchFile regenerates Table IV and reports the 4K
// create rate at L2 (paper: ~matches baseline).
func BenchmarkTable4LmbenchFile(b *testing.B) {
	var create4kL2 float64
	for i := 0; i < b.N; i++ {
		res := cloudskulk.Table4FileOps(benchOptions(i))
		for j, label := range res.Labels {
			if label == "file create 4K" {
				create4kL2 = res.PerSec[cpu.L2][j]
			}
		}
	}
	b.ReportMetric(create4kL2, "create4K-L2-ops/s")
}

// BenchmarkFigure5DetectNoNested regenerates Fig. 5 and reports the three
// mean per-page write times in µs.
func BenchmarkFigure5DetectNoNested(b *testing.B) {
	var t0, t1, t2 float64
	for i := 0; i < b.N; i++ {
		res, err := cloudskulk.Figure5DetectionClean(benchOptions(i))
		if err != nil {
			b.Fatal(err)
		}
		if res.Verdict != cloudskulk.VerdictClean {
			b.Fatalf("verdict = %v", res.Verdict)
		}
		t0 = float64(res.Evidence.T0.Mean()) / 1e3
		t1 = float64(res.Evidence.T1.Mean()) / 1e3
		t2 = float64(res.Evidence.T2.Mean()) / 1e3
	}
	b.ReportMetric(t0, "t0-us")
	b.ReportMetric(t1, "t1-us")
	b.ReportMetric(t2, "t2-us")
}

// BenchmarkFigure6DetectNested regenerates Fig. 6 (rootkit installed).
func BenchmarkFigure6DetectNested(b *testing.B) {
	var t0, t1, t2 float64
	for i := 0; i < b.N; i++ {
		res, err := cloudskulk.Figure6DetectionInfected(benchOptions(i))
		if err != nil {
			b.Fatal(err)
		}
		if res.Verdict != cloudskulk.VerdictNested {
			b.Fatalf("verdict = %v", res.Verdict)
		}
		t0 = float64(res.Evidence.T0.Mean()) / 1e3
		t1 = float64(res.Evidence.T1.Mean()) / 1e3
		t2 = float64(res.Evidence.T2.Mean()) / 1e3
	}
	b.ReportMetric(t0, "t0-us")
	b.ReportMetric(t1, "t1-us")
	b.ReportMetric(t2, "t2-us")
}

// BenchmarkBackendDetection runs the Fig. 5 (clean) and Fig. 6 (infected)
// detection sweeps on every registered hypervisor backend, one
// sub-benchmark per backend × figure, reporting each backend's timing
// signature. `make bench-backends` feeds this through cmd/benchjson.
func BenchmarkBackendDetection(b *testing.B) {
	for _, backend := range cloudskulk.Backends() {
		for _, fig := range []string{"fig5-clean", "fig6-infected"} {
			fig := fig
			b.Run(backend+"/"+fig, func(b *testing.B) {
				var t0, t1, t2 float64
				for i := 0; i < b.N; i++ {
					o := benchOptions(i)
					o.Backend = backend
					var ev cloudskulk.DetectionResult
					var err error
					if fig == "fig5-clean" {
						ev, err = cloudskulk.Figure5DetectionClean(o)
						if err == nil && ev.Verdict != cloudskulk.VerdictClean {
							b.Fatalf("%s: verdict = %v", backend, ev.Verdict)
						}
					} else {
						ev, err = cloudskulk.Figure6DetectionInfected(o)
						if err == nil && ev.Verdict != cloudskulk.VerdictNested {
							b.Fatalf("%s: verdict = %v", backend, ev.Verdict)
						}
					}
					if err != nil {
						b.Fatal(err)
					}
					t0 = float64(ev.Evidence.T0.Mean()) / 1e3
					t1 = float64(ev.Evidence.T1.Mean()) / 1e3
					t2 = float64(ev.Evidence.T2.Mean()) / 1e3
				}
				b.ReportMetric(t0, "t0-us")
				b.ReportMetric(t1, "t1-us")
				b.ReportMetric(t2, "t2-us")
			})
		}
	}
}

// BenchmarkRootkitInstall measures the full four-step installation against
// an idle 1 GiB victim and reports the simulated install time (the
// paper's "less than 1 minute" demo claim).
func BenchmarkRootkitInstall(b *testing.B) {
	var installSecs float64
	for i := 0; i < b.N; i++ {
		cloud, err := cloudskulk.New(int64(i + 1))
		if err != nil {
			b.Fatal(err)
		}
		rk, err := cloud.InstallRootkit(cloudskulk.InstallConfig{})
		if err != nil {
			b.Fatal(err)
		}
		installSecs = rk.Report.TotalTime.Seconds()
	}
	b.ReportMetric(installSecs, "install-s")
}

// BenchmarkArmsRaceSyncCountermeasure runs the §VI-D matrix and reports
// whether full-RAM tracking evades both probes and what it costs in traps.
func BenchmarkArmsRaceSyncCountermeasure(b *testing.B) {
	var evades, traps float64
	for i := 0; i < b.N; i++ {
		res, err := cloudskulk.ArmsRaceSyncCountermeasure(benchOptions(i))
		if err != nil {
			b.Fatal(err)
		}
		evades, traps = 0, 0
		for _, row := range res.Rows {
			if row.Attacker == "track all guest RAM" {
				traps += float64(row.Traps)
				if row.Verdict == cloudskulk.VerdictClean {
					evades++
				}
			}
		}
	}
	b.ReportMetric(evades, "full-track-evasions")
	b.ReportMetric(traps, "full-track-traps")
}

// BenchmarkArmsRaceMatrix runs the scenario engine's full coverage matrix
// — every generated strategy × every roster detector × every registered
// backend — and reports the roster's overall catch rate plus the number
// of dedup-evading strategies the invariant detector recovers.
// `make bench-armsrace` feeds this through cmd/benchjson.
func BenchmarkArmsRaceMatrix(b *testing.B) {
	var caught, cells, pairs float64
	for i := 0; i < b.N; i++ {
		res, err := cloudskulk.ArmsRaceMatrix(benchOptions(i))
		if err != nil {
			b.Fatal(err)
		}
		caught, cells = 0, float64(len(res.Cells))
		for _, c := range res.Cells {
			if c.Caught {
				caught++
			}
		}
		pairs = float64(len(res.EvasionPairs()))
	}
	b.ReportMetric(100*caught/cells, "caught-pct")
	b.ReportMetric(pairs, "evasion-pairs-closed")
}

// BenchmarkMultiTenantSurvey sweeps a three-tenant host with one victim
// and reports classification accuracy.
func BenchmarkMultiTenantSurvey(b *testing.B) {
	var correct float64
	for i := 0; i < b.N; i++ {
		res, err := cloudskulk.MultiTenantSurvey(benchOptions(i), 3, 1)
		if err != nil {
			b.Fatal(err)
		}
		correct = 0
		if res.Correct() {
			correct = 1
		}
	}
	b.ReportMetric(correct, "survey-correct")
}

// BenchmarkRemediationDrill runs the defender's full runbook and reports
// the tenant's remediation outage in simulated seconds.
func BenchmarkRemediationDrill(b *testing.B) {
	var outage float64
	for i := 0; i < b.N; i++ {
		res, err := cloudskulk.RemediationDrill(benchOptions(i))
		if err != nil {
			b.Fatal(err)
		}
		if res.PostVerdict != cloudskulk.VerdictClean {
			b.Fatalf("post verdict = %v", res.PostVerdict)
		}
		outage = res.Downtime.Seconds()
	}
	b.ReportMetric(outage, "remediation-outage-s")
}

// BenchmarkWatchdogTimeToDetect reports the infection-to-alert latency of
// a 10-minute-period watchdog, in simulated seconds.
func BenchmarkWatchdogTimeToDetect(b *testing.B) {
	var ttd float64
	for i := 0; i < b.N; i++ {
		res, err := cloudskulk.TimeToDetect(benchOptions(i), 10*time.Minute)
		if err != nil {
			b.Fatal(err)
		}
		ttd = res.TimeToDetect.Seconds()
	}
	b.ReportMetric(ttd, "time-to-detect-s")
}

// Ablation benches (DESIGN.md §4).

// BenchmarkAblationExitMultiplier sweeps the Turtles multiplier.
func BenchmarkAblationExitMultiplier(b *testing.B) {
	var at18 float64
	for i := 0; i < b.N; i++ {
		res := cloudskulk.AblationExitMultiplier(benchOptions(i), []int{1, 4, 9, 18, 36, 72})
		at18 = res.PipeL2Us[3]
	}
	b.ReportMetric(at18, "pipe-L2-at-18-us")
}

// BenchmarkAblationDirtyRate sweeps guest dirty rate across the pre-copy
// convergence knee.
func BenchmarkAblationDirtyRate(b *testing.B) {
	var knee float64
	for i := 0; i < b.N; i++ {
		res, err := cloudskulk.AblationDirtyRate(benchOptions(i),
			[]float64{100, 2000, 4000, 6000, 7000, 7500, 7900})
		if err != nil {
			b.Fatal(err)
		}
		knee = res.Seconds[len(res.Seconds)-1] / res.Seconds[0]
	}
	b.ReportMetric(knee, "slowdown-at-7900/s")
}

// BenchmarkAblationKSMScanRate sweeps the detector's merge window.
func BenchmarkAblationKSMScanRate(b *testing.B) {
	var okAt float64
	for i := 0; i < b.N; i++ {
		res, err := cloudskulk.AblationKSMWait(benchOptions(i), []time.Duration{
			10 * time.Millisecond, 100 * time.Millisecond, time.Second, 15 * time.Second,
		})
		if err != nil {
			b.Fatal(err)
		}
		okAt = -1
		for j, v := range res.Verdicts {
			if v == cloudskulk.VerdictClean {
				okAt = res.Waits[j].Seconds()
				break
			}
		}
	}
	b.ReportMetric(okAt, "min-wait-s")
}

// BenchmarkAblationProbeSize sweeps the probe-file size (the paper argues
// one page suffices).
func BenchmarkAblationProbeSize(b *testing.B) {
	var all float64
	for i := 0; i < b.N; i++ {
		res, err := cloudskulk.AblationProbeSize(benchOptions(i), []int{1, 10, 100, 400})
		if err != nil {
			b.Fatal(err)
		}
		all = 1
		for _, v := range res.Verdicts {
			if v != cloudskulk.VerdictNested {
				all = 0
			}
		}
	}
	b.ReportMetric(all, "all-sizes-detect")
}

// BenchmarkAblationTimingGap sweeps the dedup timing gap and reports
// whether any verdict was ever *wrong* (0 = fail-safe held).
func BenchmarkAblationTimingGap(b *testing.B) {
	var wrong float64
	for i := 0; i < b.N; i++ {
		res, err := cloudskulk.AblationTimingGap(benchOptions(i), []float64{31, 10, 4, 1})
		if err != nil {
			b.Fatal(err)
		}
		wrong = 0
		for j := range res.GapRatios {
			if res.Clean[j] == cloudskulk.VerdictNested ||
				res.Infected[j] == cloudskulk.VerdictClean {
				wrong++
			}
		}
	}
	b.ReportMetric(wrong, "wrong-verdicts")
}

// BenchmarkAblationMigrationFeatures reports the worst-case (compile
// workload, nested destination) install migration under newer-QEMU
// capabilities vs the 2.9 defaults.
func BenchmarkAblationMigrationFeatures(b *testing.B) {
	var defaults, both float64
	for i := 0; i < b.N; i++ {
		res, err := cloudskulk.AblationMigrationFeatures(benchOptions(i))
		if err != nil {
			b.Fatal(err)
		}
		defaults = res.Seconds[0]
		both = res.Seconds[len(res.Seconds)-1]
	}
	b.ReportMetric(defaults, "qemu2.9-s")
	b.ReportMetric(both, "xbzrle+autoconv-s")
}

// BenchmarkAblationPrePostCopy compares the attack under both migration
// algorithms.
func BenchmarkAblationPrePostCopy(b *testing.B) {
	var pre, post float64
	for i := 0; i < b.N; i++ {
		res, err := cloudskulk.AblationPrePostCopy(benchOptions(i))
		if err != nil {
			b.Fatal(err)
		}
		pre, post = res.PreCopySeconds, res.PostCopySeconds
	}
	b.ReportMetric(pre, "precopy-install-s")
	b.ReportMetric(post, "postcopy-install-s")
}

// BenchmarkFleetMigrationStorm quarantines an 8-host fleet's suspects
// onto its trusted hosts under link contention and reports detection
// coverage plus the storm's worst migration time in simulated seconds.
func BenchmarkFleetMigrationStorm(b *testing.B) {
	var coverage, maxMig float64
	for i := 0; i < b.N; i++ {
		o := benchOptions(i)
		res, err := cloudskulk.FleetMigrationStorm(o, []int{8}, []int{4}, []float64{0.5})
		if err != nil {
			b.Fatal(err)
		}
		row := res.Rows[0]
		coverage, maxMig = row.Coverage, row.MaxMoveSec
	}
	b.ReportMetric(coverage, "coverage")
	b.ReportMetric(maxMig, "max-migration-s")
}

// BenchmarkCloudLoad drives the control-plane load experiment at full
// scale — 10,240 tenants, 1,024,000 ops across 64 cells — and reports
// the headline service figures alongside the wall-clock cost.
func BenchmarkCloudLoad(b *testing.B) {
	var p99ms, rejectPct float64
	for i := 0; i < b.N; i++ {
		o := benchOptions(i)
		res, err := cloudskulk.CloudLoad(o, cloudskulk.DefaultCloudLoadConfig())
		if err != nil {
			b.Fatal(err)
		}
		p99ms = float64(res.P99us) / 1000
		rejectPct = 100 * float64(res.AdmissionRejects) / float64(res.Mutations)
	}
	b.ReportMetric(p99ms, "p99-ms")
	b.ReportMetric(rejectPct, "admission-reject-pct")
}

// BenchmarkSweepWorkers regenerates Fig. 4 (the heaviest sweep: 6 cells x
// Runs full migrations, each with its own testbed) at increasing worker
// counts. On a multi-core machine wall-clock time drops near-linearly
// while the rendered figure stays byte-identical — the parallel runner
// only reschedules cells, it never reseeds them.
func BenchmarkSweepWorkers(b *testing.B) {
	for _, workers := range []int{1, 2, 4, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				o := benchOptions(i)
				o.Runs = 3
				o.Workers = workers
				if _, err := cloudskulk.Figure4Migration(o); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkShardScale runs the sharded-cloud megastorm at 8, 128, and
// 1,024 hosts (shard count scales, per-shard size stays fixed) and
// reports ns of wall clock per simulated host. Conservative
// synchronization keeps per-host cost near-flat as the world grows two
// orders of magnitude — the scaling claim BENCH_SCALE.json records.
func BenchmarkShardScale(b *testing.B) {
	for _, shards := range []int{2, 32, 256} {
		hosts := shards * 4
		b.Run(fmt.Sprintf("hosts=%d", hosts), func(b *testing.B) {
			cfg := cloudskulk.MegaStormConfig{
				Shards:             shards,
				HostsPerShard:      4,
				GuestsPerHost:      16,
				GuestMemMB:         16,
				MigrationsPerShard: 2,
				TampersPerShard:    2,
				BurstPages:         8,
			}
			for i := 0; i < b.N; i++ {
				o := benchOptions(i)
				r, err := cloudskulk.MegaStorm(o, cfg)
				if err != nil {
					b.Fatal(err)
				}
				if r.MissedTampers != 0 || r.FalseFlags != 0 {
					b.Fatalf("audit not exact: %+v", r)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*hosts), "ns/host")
			b.ReportMetric(float64(16*hosts), "guests")
		})
	}
}

// BenchmarkSpawnFrom forks guests copy-on-write from golden images of
// increasing size. ns/op staying flat from 64 MB to 1 GB is the O(1)
// golden-boot claim: a fork shares all page state with the template and
// allocates only fixed-size bookkeeping. The last fork's content hash is
// checked against the template's outside the timed loop, because hashing
// is a pass over every page.
func BenchmarkSpawnFrom(b *testing.B) {
	for _, memMB := range []int64{64, 256, 1024} {
		b.Run(fmt.Sprintf("memMB=%d", memMB), func(b *testing.B) {
			src := mem.NewSpace("golden", memMB<<20)
			src.FillRandom(rand.New(rand.NewSource(1)), 0.25)
			tmpl := mem.Freeze("golden", src)
			var sp *mem.Space
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sp = mem.SpawnFrom("fork", tmpl)
			}
			b.StopTimer()
			if sp.ContentHash() != tmpl.ContentHash() {
				b.Fatal("fork hash mismatch")
			}
		})
	}
}
