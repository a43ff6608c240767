package experiments

import (
	"strings"
	"testing"

	"cloudskulk/internal/detect"
)

func TestArmsRaceMatrix(t *testing.T) {
	o := TestOptions()
	res, err := ArmsRaceSyncCountermeasure(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 6 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	cell := func(a ArmsRaceAttacker, p ArmsRaceProbe) ArmsRaceRow {
		for _, r := range res.Rows {
			if r.Attacker == a && r.Probe == p {
				return r
			}
		}
		t.Fatalf("missing cell %s/%s", a, p)
		return ArmsRaceRow{}
	}

	// Baseline: no sync is caught by both probes.
	if v := cell(AttackerNoSync, ProbePushedFile).Verdict; v != detect.VerdictNested {
		t.Fatalf("no-sync/pushed = %v", v)
	}
	if v := cell(AttackerNoSync, ProbeImage).Verdict; v != detect.VerdictNested {
		t.Fatalf("no-sync/image = %v", v)
	}
	// Tracking only pushes evades the pushed-file probe...
	if v := cell(AttackerSyncPush, ProbePushedFile).Verdict; v != detect.VerdictClean {
		t.Fatalf("push-sync/pushed = %v (sync failed to evade)", v)
	}
	// ...but not the unpredictable image probe.
	if v := cell(AttackerSyncPush, ProbeImage).Verdict; v != detect.VerdictNested {
		t.Fatalf("push-sync/image = %v", v)
	}
	// Tracking everything evades both.
	if v := cell(AttackerSyncAllOf, ProbePushedFile).Verdict; v != detect.VerdictClean {
		t.Fatalf("all-sync/pushed = %v", v)
	}
	if v := cell(AttackerSyncAllOf, ProbeImage).Verdict; v != detect.VerdictClean {
		t.Fatalf("all-sync/image = %v", v)
	}
	// ...at a visible and growing cost.
	full := cell(AttackerSyncAllOf, ProbeImage)
	partial := cell(AttackerSyncPush, ProbeImage)
	if full.Traps <= partial.Traps {
		t.Fatalf("full tracking traps (%d) not more than partial (%d)",
			full.Traps, partial.Traps)
	}
	if !full.HookVisible {
		t.Fatal("full tracking hook not visible to integrity checks")
	}
	if cell(AttackerNoSync, ProbeImage).HookVisible {
		t.Fatal("phantom hook on no-sync attacker")
	}
	if full.TrapOverhead <= 0 {
		t.Fatal("no trap overhead recorded")
	}
	out := res.Render()
	for _, want := range []string{"track all guest RAM", "image probe", "hook visible"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestAblationTimingGap(t *testing.T) {
	o := TestOptions()
	// Wide gap classifies; gap of 1.0 (no signal) must degrade to
	// inconclusive, never to a wrong verdict.
	res, err := AblationTimingGap(o, []float64{31.0, 10.0, 1.0})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.GapRatios) != 3 || len(res.Clean) != 3 || len(res.Infected) != 3 {
		t.Fatalf("rows = %d/%d/%d", len(res.GapRatios), len(res.Clean), len(res.Infected))
	}
	if res.Clean[0] != detect.VerdictClean || res.Infected[0] != detect.VerdictNested {
		t.Fatalf("wide gap: clean=%v infected=%v", res.Clean[0], res.Infected[0])
	}
	if res.Clean[2] != detect.VerdictInconclusive || res.Infected[2] != detect.VerdictInconclusive {
		t.Fatalf("no gap: clean=%v infected=%v", res.Clean[2], res.Infected[2])
	}
	for i := range res.GapRatios {
		if res.Clean[i] == detect.VerdictNested {
			t.Fatalf("false positive at gap %v", res.GapRatios[i])
		}
		if res.Infected[i] == detect.VerdictClean {
			t.Fatalf("false negative at gap %v", res.GapRatios[i])
		}
	}
	if !strings.Contains(res.Render(), "gap ratio") {
		t.Fatal("render")
	}
}

func TestVendorImageProvisioned(t *testing.T) {
	c, err := NewCloud(1, WithGuestMemMB(32))
	if err != nil {
		t.Fatal(err)
	}
	if c.VendorImage == nil || c.VendorImage.NumPages() < 8 {
		t.Fatalf("vendor image = %+v", c.VendorImage)
	}
	if got := c.Victim.RAM().FileResident(c.VendorImage, c.VendorImageAt); got != c.VendorImage.NumPages() {
		t.Fatalf("image residency = %d/%d", got, c.VendorImage.NumPages())
	}
}

func TestImageProbeCleanHost(t *testing.T) {
	// On a clean host the image probe behaves like Fig. 5.
	o := TestOptions()
	c, err := NewCloud(o.Seed, WithGuestMemMB(o.GuestMemMB))
	if err != nil {
		t.Fatal(err)
	}
	c.Host.KSM().Start()
	agent := detect.NewGuestAgent(c.Victim)
	verdict, ev, err := o.dedupDetector(c.Host).RunImageProbe(agent, c.VendorImage, c.VendorImageAt)
	if err != nil {
		t.Fatal(err)
	}
	if verdict != detect.VerdictClean {
		t.Fatalf("verdict = %v (t1 merged %.0f%%, t2 merged %.0f%%)",
			verdict, ev.T1.MergedFraction*100, ev.T2.MergedFraction*100)
	}
}
