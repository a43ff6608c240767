package experiments

import (
	"strings"
	"testing"
	"time"

	"cloudskulk/internal/core"
	"cloudskulk/internal/cpu"
	"cloudskulk/internal/detect"
	"cloudskulk/internal/mem"
	"cloudskulk/internal/stats"
	"cloudskulk/internal/telemetry"
)

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	d := DefaultOptions()
	if o.GuestMemMB != d.GuestMemMB || o.Runs != d.Runs || o.KSMWait != d.KSMWait {
		t.Fatalf("defaults not applied: %+v", o)
	}
}

// TestNewCloudTelemetry: a registry passed through WithTelemetry collects
// the testbed's metrics.
func TestNewCloudTelemetry(t *testing.T) {
	reg := telemetry.NewRegistry()
	if _, err := NewCloud(1, WithGuestMemMB(32), WithTelemetry(reg)); err != nil {
		t.Fatal(err)
	}
	if text := reg.PromText(); !strings.Contains(text, "kvm_vms_launched_total") {
		t.Fatalf("missing kvm_vms_launched_total in export:\n%s", text)
	}
}

func TestNewCloud(t *testing.T) {
	c, err := NewCloud(1, WithGuestMemMB(16))
	if err != nil {
		t.Fatal(err)
	}
	if !c.Victim.Running() {
		t.Fatal("victim not running")
	}
	if c.Victim.Config().MemoryMB != 16 {
		t.Fatalf("mem = %d", c.Victim.Config().MemoryMB)
	}
	// Duplicate endpoint error path.
	if _, err := NewCloud(1, WithGuestMemMB(16)); err != nil {
		t.Fatalf("second independent cloud failed: %v", err)
	}
}

func TestPerRunSeedsDiffer(t *testing.T) {
	o := TestOptions()
	a := perRunSeed(o, "cell-a", 0)
	b := perRunSeed(o, "cell-a", 1)
	c := perRunSeed(o, "cell-b", 0)
	if a == b || a == c {
		t.Fatalf("seeds collide: %d %d %d", a, b, c)
	}
	if a != perRunSeed(o, "cell-a", 0) {
		t.Fatal("seed not deterministic")
	}
}

func TestFigure2Shape(t *testing.T) {
	res, err := Figure2KernelCompile(TestOptions())
	if err != nil {
		t.Fatal(err)
	}
	l0, l1, l2 := stats.Mean(res.Seconds[cpu.L0]), stats.Mean(res.Seconds[cpu.L1]), stats.Mean(res.Seconds[cpu.L2])
	// Paper shape: big L0->L1 gap (ccache), L2 = L1 * ~1.257.
	if r := l1 / l0; r < 2.8 || r > 4.8 {
		t.Fatalf("L1/L0 = %.2f, want ~3.8", r)
	}
	if r := l2 / l1; r < 1.20 || r > 1.32 {
		t.Fatalf("L2/L1 = %.3f, want ~1.257", r)
	}
	out := res.Render()
	for _, want := range []string{"Fig 2", "L0", "L1", "L2", "% vs layer below"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestFigure3Shape(t *testing.T) {
	o := TestOptions()
	o.Runs = 5
	res, err := Figure3Netperf(o)
	if err != nil {
		t.Fatal(err)
	}
	l0, l1, l2 := stats.Mean(res.Mbps[cpu.L0]), stats.Mean(res.Mbps[cpu.L1]), stats.Mean(res.Mbps[cpu.L2])
	// All within 12% of each other — "nearly the same".
	for _, pair := range [][2]float64{{l0, l1}, {l1, l2}, {l0, l2}} {
		d := pair[1]/pair[0] - 1
		if d < -0.15 || d > 0.15 {
			t.Fatalf("levels differ too much: %v / %v / %v", l0, l1, l2)
		}
	}
	// L1's variance exceeds L0's (paper: 10.32% vs 1.11%).
	if rsd1, rsd0 := stats.RelStddev(res.Mbps[cpu.L1]), stats.RelStddev(res.Mbps[cpu.L0]); rsd1 <= rsd0 {
		t.Logf("warning: L1 rsd %.3f <= L0 rsd %.3f (small-sample)", rsd1, rsd0)
	}
	if !strings.Contains(res.Render(), "Mbit/s") {
		t.Fatal("render missing unit")
	}
}

func TestFigure4Shape(t *testing.T) {
	o := TestOptions()
	o.Runs = 2
	res, err := Figure4Migration(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 6 {
		t.Fatalf("cells = %d", len(res.Cells))
	}
	mean := func(w string, k MigrationKind) float64 {
		c, ok := res.Cell(w, k)
		if !ok {
			t.Fatalf("missing cell %s/%s", w, k)
		}
		var sum float64
		for _, s := range c.Seconds {
			sum += s
		}
		return sum / float64(len(c.Seconds))
	}
	idleFlat := mean("idle", MigrationL0L0)
	idleNested := mean("idle", MigrationL0L1)
	fbNested := mean("filebench", MigrationL0L1)
	kcNested := mean("kernel-compile", MigrationL0L1)
	kcFlat := mean("kernel-compile", MigrationL0L0)

	// Orderings the paper reports: idle < filebench << kernel-compile,
	// and nested slower than flat.
	if !(idleNested < fbNested && fbNested < kcNested) {
		t.Fatalf("ordering wrong: idle %v, fb %v, kc %v", idleNested, fbNested, kcNested)
	}
	if idleNested <= idleFlat {
		t.Fatalf("nested idle (%v) not slower than flat (%v)", idleNested, idleFlat)
	}
	if kcNested <= kcFlat {
		t.Fatalf("nested compile (%v) not slower than flat (%v)", kcNested, kcFlat)
	}
	// The compile workload amplifies migration dramatically relative to
	// idle (paper: 26s -> 820s at full scale).
	if kcNested/idleNested < 3 {
		t.Fatalf("compile/idle nested ratio = %.1f, want large", kcNested/idleNested)
	}
	if !strings.Contains(res.Render(), "L0-L1") {
		t.Fatal("render missing series")
	}
}

func TestTable2And3And4(t *testing.T) {
	o := TestOptions()
	t2 := Table2Arithmetic(o)
	if len(t2.Ops) != 10 || len(t2.Nanos[cpu.L2]) != 10 {
		t.Fatalf("table2 = %+v", t2.Ops)
	}
	if !strings.Contains(t2.Render(), "integer div") {
		t.Fatal("table2 render")
	}
	t3 := Table3Processes(o)
	if len(t3.Ops) != 8 {
		t.Fatalf("table3 ops = %d", len(t3.Ops))
	}
	// pipe latency L2 >> L0 in the rendered data.
	var pipeIdx int
	for i, op := range t3.Ops {
		if op == "pipe latency" {
			pipeIdx = i
		}
	}
	if t3.Micros[cpu.L2][pipeIdx] < 10*t3.Micros[cpu.L0][pipeIdx] {
		t.Fatal("table3 lost the pipe explosion")
	}
	if !strings.Contains(t3.Render(), "fork+ exit") {
		t.Fatal("table3 render")
	}
	t4 := Table4FileOps(o)
	if len(t4.Labels) != 8 {
		t.Fatalf("table4 = %d", len(t4.Labels))
	}
	for i := range t4.Labels {
		r := t4.PerSec[cpu.L2][i] / t4.PerSec[cpu.L0][i]
		if r < 0.93 || r > 1.07 {
			t.Fatalf("table4 %s L2/L0 = %.2f, want ~1", t4.Labels[i], r)
		}
	}
	if !strings.Contains(t4.Render(), ",") {
		t.Fatal("table4 render missing thousands separators")
	}
}

func TestTable1(t *testing.T) {
	out := Table1CVE().Render()
	for _, want := range []string{"TABLE I", "VMware", "KVM/QEMU", "Total", "29", "23", "2015"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table1 missing %q:\n%s", want, out)
		}
	}
}

func TestTable1Full(t *testing.T) {
	out := Table1CVE().RenderFull()
	// Individual CVE identifiers appear, including VENOM and the 2018
	// VirtualBox batch; the totals row survives.
	for _, want := range []string{
		"CVE-2015-3456", "CVE-2018-2698", "CVE-2020-3971", "Total",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("full table1 missing %q", want)
		}
	}
	// 96 CVE ids, one per line cell.
	if got := strings.Count(out, "CVE-"); got != 96 {
		t.Fatalf("full table1 lists %d CVEs, want 96", got)
	}
}

func TestFigure5And6(t *testing.T) {
	o := TestOptions()
	clean, err := Figure5DetectionClean(o)
	if err != nil {
		t.Fatal(err)
	}
	if clean.Verdict != detect.VerdictClean {
		t.Fatalf("fig5 verdict = %v", clean.Verdict)
	}
	if clean.Evidence.T1.Mean() < 5*clean.Evidence.T2.Mean() {
		t.Fatalf("fig5 shape: t1 %v vs t2 %v", clean.Evidence.T1.Mean(), clean.Evidence.T2.Mean())
	}
	infected, err := Figure6DetectionInfected(o)
	if err != nil {
		t.Fatal(err)
	}
	if infected.Verdict != detect.VerdictNested {
		t.Fatalf("fig6 verdict = %v", infected.Verdict)
	}
	if infected.Evidence.T2.Mean() < 5*infected.Evidence.T0.Mean() {
		t.Fatalf("fig6 shape: t2 %v vs t0 %v", infected.Evidence.T2.Mean(), infected.Evidence.T0.Mean())
	}
	for _, out := range []string{clean.Render(), infected.Render()} {
		for _, want := range []string{"t0", "t1", "t2", "verdict"} {
			if !strings.Contains(out, want) {
				t.Fatalf("render missing %q:\n%s", want, out)
			}
		}
	}
}

func TestAblationExitMultiplier(t *testing.T) {
	res := AblationExitMultiplier(TestOptions(), []int{1, 9, 18, 36})
	if len(res.PipeL2Us) != 4 {
		t.Fatalf("rows = %d", len(res.PipeL2Us))
	}
	for i := 1; i < len(res.PipeL2Us); i++ {
		if res.PipeL2Us[i] <= res.PipeL2Us[i-1] {
			t.Fatal("pipe latency not monotone in multiplier")
		}
	}
	// The default (18) lands near the paper's 65.49µs.
	if res.PipeL2Us[2] < 55 || res.PipeL2Us[2] > 75 {
		t.Fatalf("default multiplier gives %.1fµs, paper 65.49", res.PipeL2Us[2])
	}
	if !strings.Contains(res.Render(), "65.49") {
		t.Fatal("render missing paper reference")
	}
}

func TestAblationDirtyRate(t *testing.T) {
	o := TestOptions()
	res, err := AblationDirtyRate(o, []float64{100, 4000, 7500})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Seconds) != 3 {
		t.Fatalf("rows = %d", len(res.Seconds))
	}
	// Migration time grows with dirty rate.
	if !(res.Seconds[0] < res.Seconds[1] && res.Seconds[1] < res.Seconds[2]) {
		t.Fatalf("no knee: %v", res.Seconds)
	}
	if !strings.Contains(res.Render(), "pages/s") {
		t.Fatal("render")
	}
}

func TestAblationPrePostCopy(t *testing.T) {
	res, err := AblationPrePostCopy(TestOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.PreCopySeconds <= 0 || res.PostCopySeconds <= 0 {
		t.Fatalf("result = %+v", res)
	}
	// Post-copy's victim downtime is far smaller.
	if res.PostDowntime >= res.PreDowntime {
		t.Fatalf("downtimes: pre %v post %v", res.PreDowntime, res.PostDowntime)
	}
	if !strings.Contains(res.Render(), "post-copy") {
		t.Fatal("render")
	}
}

func TestAblationProbeSize(t *testing.T) {
	o := TestOptions()
	res, err := AblationProbeSize(o, []int{1, 10, 50})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range res.Verdicts {
		if v != detect.VerdictNested {
			t.Fatalf("probe size %d verdict = %v", res.Pages[i], v)
		}
	}
	if !strings.Contains(res.Render(), "verdict") {
		t.Fatal("render")
	}
}

func TestAblationKSMWait(t *testing.T) {
	o := TestOptions()
	res, err := AblationKSMWait(o, []time.Duration{time.Millisecond, 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdicts[0] != detect.VerdictInconclusive {
		t.Fatalf("1ms wait verdict = %v", res.Verdicts[0])
	}
	if res.Verdicts[1] != detect.VerdictClean {
		t.Fatalf("10s wait verdict = %v", res.Verdicts[1])
	}
	if !strings.Contains(res.Render(), "wait") {
		t.Fatal("render")
	}
}

func TestBaselineComparison(t *testing.T) {
	res, err := BaselineComparison(TestOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	byName := map[string]BaselineComparisonRow{}
	for _, r := range res.Rows {
		byName[r.Attacker] = r
	}
	def := byName["default (VT-x, impersonating)"]
	if def.DedupVerdict != detect.VerdictNested || def.VMCSFindings == 0 || def.FingerprintFlag {
		t.Fatalf("default row = %+v", def)
	}
	soft := byName["software MMU (VMCS hidden)"]
	if soft.DedupVerdict != detect.VerdictNested || soft.VMCSFindings != 0 {
		t.Fatalf("software row = %+v (dedup must still catch; VMCS must miss)", soft)
	}
	naive := byName["naive (no impersonation)"]
	if !naive.FingerprintFlag {
		t.Fatalf("naive row = %+v (fingerprint must catch)", naive)
	}
	if !strings.Contains(res.Render(), "VMCS scan") {
		t.Fatal("render")
	}
}

// TestInstallRootkitViaCloud: the zero InstallConfig is the paper's
// install through the installer and through the cloud alike, so the RITM
// carries the victim's kernel image; Naive leaves the RITM its own.
func TestInstallRootkitViaCloud(t *testing.T) {
	cases := []struct {
		name        string
		install     func(*Cloud) (*core.Rootkit, error)
		impersonate bool
	}{
		{"installer-zero", func(c *Cloud) (*core.Rootkit, error) {
			return core.Installer{Host: c.Host, Migration: c.Migration}.Install(core.InstallConfig{TargetName: "guest0"})
		}, true},
		{"cloud-zero", func(c *Cloud) (*core.Rootkit, error) {
			return c.InstallRootkit(core.InstallConfig{})
		}, true},
		{"cloud-naive", func(c *Cloud) (*core.Rootkit, error) {
			return c.InstallRootkit(core.InstallConfig{Naive: true})
		}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, err := NewCloud(5, WithGuestMemMB(16))
			if err != nil {
				t.Fatal(err)
			}
			rk, err := tc.install(c)
			if err != nil {
				t.Fatal(err)
			}
			if rk.Victim.Name() != "guest0" || !rk.Victim.Running() {
				t.Fatalf("victim = %q %v", rk.Victim.Name(), rk.Victim.State())
			}
			victimFP := mem.Fingerprint(rk.Victim.RAM(), core.KernelPages)
			if got := mem.Fingerprint(rk.RITM.RAM(), core.KernelPages) == victimFP; got != tc.impersonate {
				t.Fatalf("RITM kernel fingerprint matches the victim's: %v, want %v", got, tc.impersonate)
			}
		})
	}
}
