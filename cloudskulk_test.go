package cloudskulk_test

import (
	"strings"
	"testing"
	"time"

	"cloudskulk"
	"cloudskulk/internal/cpu"
)

// TestPublicAPIQuickstart exercises the README's quick-start flow through
// the public facade only.
func TestPublicAPIQuickstart(t *testing.T) {
	cloud, err := cloudskulk.New(1, cloudskulk.WithGuestMemMB(32))
	if err != nil {
		t.Fatal(err)
	}
	rk, err := cloud.InstallRootkit(cloudskulk.InstallConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if rk.Victim.Level() != cpu.L2 {
		t.Fatalf("victim level = %v", rk.Victim.Level())
	}
	cloud.Host.KSM().Start()
	det := cloudskulk.NewDedupDetector(cloud.Host)
	det.Pages = 50
	agent := cloudskulk.NewGuestAgent(rk.Victim)
	agent.OnLoad = rk.InterceptFilePushes()
	verdict, ev, err := det.Run(agent)
	if err != nil {
		t.Fatal(err)
	}
	if verdict != cloudskulk.VerdictNested {
		t.Fatalf("verdict = %v", verdict)
	}
	if ev.T2.Mean() < ev.T0.Mean() {
		t.Fatal("evidence shape wrong")
	}
}

func TestPublicAPICleanDetection(t *testing.T) {
	cloud, err := cloudskulk.New(2, cloudskulk.WithGuestMemMB(32))
	if err != nil {
		t.Fatal(err)
	}
	cloud.Host.KSM().Start()
	det := cloudskulk.NewDedupDetector(cloud.Host)
	det.Pages = 50
	verdict, _, err := det.Run(cloudskulk.NewGuestAgent(cloud.Victim))
	if err != nil {
		t.Fatal(err)
	}
	if verdict != cloudskulk.VerdictClean {
		t.Fatalf("verdict = %v", verdict)
	}
}

func TestPublicAPIExperiments(t *testing.T) {
	o := cloudskulk.QuickExperimentOptions()
	if out := cloudskulk.Table1CVE().Render(); !strings.Contains(out, "TABLE I") {
		t.Fatal("table1")
	}
	if _, err := cloudskulk.Figure2KernelCompile(o); err != nil {
		t.Fatal(err)
	}
	if _, err := cloudskulk.Figure3Netperf(o); err != nil {
		t.Fatal(err)
	}
	t2 := cloudskulk.Table2Arithmetic(o)
	if len(t2.Ops) != 10 {
		t.Fatal("table2")
	}
	if got := cloudskulk.Table3Processes(o); len(got.Ops) != 8 {
		t.Fatal("table3")
	}
	if got := cloudskulk.Table4FileOps(o); len(got.Labels) != 8 {
		t.Fatal("table4")
	}
}

func TestPublicAPIExperimentExtensions(t *testing.T) {
	o := cloudskulk.QuickExperimentOptions()
	if res, err := cloudskulk.Figure4Migration(o); err != nil || len(res.Cells) != 6 {
		t.Fatalf("fig4: %v", err)
	}
	if res, err := cloudskulk.Figure5DetectionClean(o); err != nil ||
		res.Verdict != cloudskulk.VerdictClean {
		t.Fatalf("fig5: %v %v", res.Verdict, err)
	}
	if res, err := cloudskulk.Figure6DetectionInfected(o); err != nil ||
		res.Verdict != cloudskulk.VerdictNested {
		t.Fatalf("fig6: %v %v", res.Verdict, err)
	}
	if res, err := cloudskulk.MultiTenantSurvey(o, 2, 0); err != nil || !res.Correct() {
		t.Fatalf("survey: %v", err)
	}
	if res, err := cloudskulk.RemediationDrill(o); err != nil ||
		res.PostVerdict != cloudskulk.VerdictClean {
		t.Fatalf("remediation: %v", err)
	}
	if res, err := cloudskulk.ArmsRaceSyncCountermeasure(o); err != nil || len(res.Rows) != 6 {
		t.Fatalf("armsrace: %v", err)
	}
	if res, err := cloudskulk.AblationTimingGap(o, []float64{31}); err != nil ||
		len(res.GapRatios) != 1 {
		t.Fatalf("timing gap: %v", err)
	}
	if res, err := cloudskulk.AblationMigrationFeatures(o); err != nil ||
		len(res.Variants) != 4 {
		t.Fatalf("features: %v", err)
	}
	if res, err := cloudskulk.AblationPrePostCopy(o); err != nil ||
		res.PreCopySeconds <= 0 {
		t.Fatalf("prepost: %v", err)
	}
	if res, err := cloudskulk.AblationDirtyRate(o, []float64{100, 4000}); err != nil ||
		len(res.Seconds) != 2 {
		t.Fatalf("dirty rate: %v", err)
	}
	if res, err := cloudskulk.AblationProbeSize(o, []int{5}); err != nil ||
		len(res.Verdicts) != 1 {
		t.Fatalf("probe size: %v", err)
	}
	if res, err := cloudskulk.AblationKSMWait(o, []time.Duration{10 * time.Second}); err != nil ||
		len(res.Verdicts) != 1 {
		t.Fatalf("ksm wait: %v", err)
	}
	if res, err := cloudskulk.TimeToDetect(o, 5*time.Minute); err != nil ||
		res.TimeToDetect <= 0 {
		t.Fatalf("ttd: %v", err)
	}
	if res := cloudskulk.AblationExitMultiplier(o, []int{18}); len(res.PipeL2Us) != 1 {
		t.Fatal("exit multiplier")
	}
}

// TestPublicAPIBaselines reaches the VMCS-scan and VMI-fingerprint
// baseline detectors through the facade's §VI-E comparison.
func TestPublicAPIBaselines(t *testing.T) {
	res, err := cloudskulk.BaselineComparison(cloudskulk.QuickExperimentOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(res.Rows))
	}
	out := res.Render()
	for _, want := range []string{"VMCS scan", "VMI fingerprint"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render lacks %q:\n%s", want, out)
		}
	}
}

func TestPublicAPIServices(t *testing.T) {
	cloud, err := cloudskulk.New(4, cloudskulk.WithGuestMemMB(32))
	if err != nil {
		t.Fatal(err)
	}
	rk, err := cloud.InstallRootkit(cloudskulk.InstallConfig{})
	if err != nil {
		t.Fatal(err)
	}
	sniffer := cloudskulk.NewSniffer()
	if err := rk.AttachTap(sniffer); err != nil {
		t.Fatal(err)
	}
	filter := cloudskulk.NewActiveFilter(cloudskulk.FilterRule{
		Port:   22,
		Match:  []byte("drop-me"),
		Action: cloudskulk.ActionDrop,
	})
	if err := rk.AttachTap(filter); err != nil {
		t.Fatal(err)
	}
}

// TestEveryBackendDetectsTheRootkit is the cross-backend smoke test: the
// KSM write-timing detector must flag the nested guest on every
// registered backend, not just the paper's testbed calibration — the
// attack and the defence are mechanics, the backend only moves the
// constants.
func TestEveryBackendDetectsTheRootkit(t *testing.T) {
	names := cloudskulk.Backends()
	if len(names) < 3 {
		t.Fatalf("want >= 3 registered backends, got %v", names)
	}
	for _, name := range names {
		name := name
		t.Run(name, func(t *testing.T) {
			o := cloudskulk.QuickExperimentOptions()
			o.Seed = 11
			o.Backend = name
			res, err := cloudskulk.Figure6DetectionInfected(o)
			if err != nil {
				t.Fatal(err)
			}
			if res.Verdict != cloudskulk.VerdictNested {
				t.Fatalf("backend %s: verdict = %v, want nested", name, res.Verdict)
			}
		})
	}
}

// TestPublicBackendAPI exercises the backend surface of the facade:
// lookup by name, the default, and the error for an unregistered name.
func TestPublicBackendAPI(t *testing.T) {
	b, err := cloudskulk.LookupBackend("")
	if err != nil || b.Name != cloudskulk.DefaultBackend {
		t.Fatalf("LookupBackend(\"\") = %v, %v", b.Name, err)
	}
	if b, err := cloudskulk.LookupBackend("hvf-m2"); err != nil || b.Name != "hvf-m2" {
		t.Fatalf("LookupBackend(hvf-m2) = %v, %v", b.Name, err)
	}
	if _, err := cloudskulk.LookupBackend("xen-4.1"); err == nil ||
		!strings.Contains(err.Error(), cloudskulk.DefaultBackend) {
		t.Fatalf("LookupBackend(xen-4.1) error %v does not list the registry", err)
	}
}

// TestPublicTelemetryAPI exercises the telemetry facade: a registry set as
// ExperimentOptions.Telemetry collects the metrics of both a testbed
// experiment and a fleet-backed one, and both export paths produce
// non-empty output.
func TestPublicTelemetryAPI(t *testing.T) {
	reg := cloudskulk.NewTelemetryRegistry()
	o := cloudskulk.QuickExperimentOptions()
	o.Telemetry = reg
	if _, err := cloudskulk.Figure5DetectionClean(o); err != nil {
		t.Fatal(err)
	}
	if _, err := cloudskulk.CloudLoad(o, cloudskulk.QuickCloudLoadConfig()); err != nil {
		t.Fatal(err)
	}
	text := reg.PromText()
	for _, want := range []string{"kvm_vms_launched_total", "fleet_placements_total"} {
		if !strings.Contains(text, want) {
			t.Fatalf("missing %q in export:\n%s", want, text)
		}
	}
	var b strings.Builder
	if err := reg.WriteJSONLines(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `"type":"counter"`) {
		t.Fatalf("JSON-lines export empty:\n%s", b.String())
	}
}
