package fleet_test

import (
	"fmt"
	"testing"
	"time"

	"cloudskulk/internal/detect"
	"cloudskulk/internal/fleet"
)

// TestFleetSweep16Hosts is the acceptance scenario: a 16-host fleet with
// one infected guest. After MigrateToTrusted moves it onto a trusted
// host, the fleet-wide dedup sweep flags exactly that guest as nested.
func TestFleetSweep16Hosts(t *testing.T) {
	f, err := fleet.New(1, fleet.WithHosts(16))
	if err != nil {
		t.Fatal(err)
	}
	// One guest per untrusted host (h00..h11).
	for i := 0; i < 12; i++ {
		host := fmt.Sprintf("h%02d", i)
		if _, err := f.StartGuest(host, fmt.Sprintf("g%02d", i), 32); err != nil {
			t.Fatal(err)
		}
	}
	rk := install(t, f, "h03", "g03")

	rep, err := f.MigrateToTrusted("g03")
	if err != nil {
		t.Fatal(err)
	}
	if !f.Trusted(rep.To) {
		t.Fatalf("moved to untrusted %q", rep.To)
	}
	// The user is still "in their VM": rebind the rootkit's handles (and
	// later the agent) to the migrated instances, like the interposition
	// itself travelling with the stack.
	info, err := f.Lookup("g03")
	if err != nil {
		t.Fatal(err)
	}
	if info.Outer == info.Inner {
		t.Fatal("nested stack lost in migration")
	}
	rk.RITM, rk.Victim = info.Outer, info.Inner

	verdicts, err := f.SweepDetect(fleet.SweepOptions{
		Pages: 50,
		Wait:  10 * time.Second,
		OnAgent: func(guest string, agent *detect.GuestAgent) {
			if guest == "g03" {
				agent.OnLoad = rk.InterceptFilePushes()
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(verdicts) != 12 {
		t.Fatalf("verdicts = %d", len(verdicts))
	}
	for _, v := range verdicts {
		want := detect.VerdictClean
		if v.Guest == "g03" {
			want = detect.VerdictNested
			if !f.Trusted(v.Host) {
				t.Errorf("g03 probed on untrusted %q", v.Host)
			}
		}
		if v.Verdict != want {
			t.Errorf("%s on %s: verdict = %v, want %v", v.Guest, v.Host, v.Verdict, want)
		}
	}
}

// TestSweepDeterministic re-runs an identical fleet scenario and expects
// identical evidence, guest for guest: the sweep shares one seeded
// engine, so there is nothing wall-clock-dependent in it.
func TestSweepDeterministic(t *testing.T) {
	build := func() []fleet.GuestVerdict {
		f, err := fleet.New(7, WithTestHosts())
		if err != nil {
			t.Fatal(err)
		}
		for i, host := range []string{"h00", "h01"} {
			if _, err := f.StartGuest(host, fmt.Sprintf("g%d", i), 32); err != nil {
				t.Fatal(err)
			}
		}
		verdicts, err := f.SweepDetect(fleet.SweepOptions{Pages: 30, Wait: 5 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		return verdicts
	}
	a, b := build(), build()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Guest != b[i].Guest || a[i].Verdict != b[i].Verdict ||
			a[i].Evidence.T1.MergedFraction != b[i].Evidence.T1.MergedFraction {
			t.Fatalf("run diverged at %s: %+v vs %+v", a[i].Guest, a[i], b[i])
		}
	}
}
