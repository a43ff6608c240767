package fleet_test

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"cloudskulk/internal/core"
	"cloudskulk/internal/fleet"
	"cloudskulk/internal/migrate"
	"cloudskulk/internal/qemu"
	"cloudskulk/internal/vnet"
)

func TestMigrateVMCleanGuest(t *testing.T) {
	f, err := fleet.New(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.StartGuest("h00", "g0", 32); err != nil {
		t.Fatal(err)
	}
	rep, err := f.MigrateVM("g0", "h02")
	if err != nil {
		t.Fatal(err)
	}
	if rep.From != "h00" || rep.To != "h02" || rep.Attempts != 1 || rep.Retries != 0 {
		t.Fatalf("rep = %+v", rep)
	}
	if rep.Result.BytesOnWire == 0 || rep.Duration <= 0 {
		t.Fatalf("rep = %+v", rep)
	}
	info, err := f.Lookup("g0")
	if err != nil {
		t.Fatal(err)
	}
	if info.Host != "h02" || !info.Inner.Running() || info.Inner != info.Outer {
		t.Fatalf("info = %+v", info)
	}
	// The source instance is gone: nothing left on h00.
	h0, _ := f.Host("h00")
	if vms := h0.Hypervisor().VMs(); len(vms) != 0 {
		t.Fatalf("source leftovers: %v", vms)
	}
	if free := f.FreeMemMB("h00"); free != fleet.DefaultHostMemMB {
		t.Fatalf("free on source = %d", free)
	}
	if _, err := f.MigrateVM("g0", "h02"); !errors.Is(err, fleet.ErrSameHost) {
		t.Fatalf("err = %v", err)
	}
}

func TestMigrateVMInfectedGuestMovesNestedStack(t *testing.T) {
	f, err := fleet.New(1, WithTestHosts())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.StartGuest("h00", "g0", 32); err != nil {
		t.Fatal(err)
	}
	rk := install(t, f, "h00", "g0")

	before, err := f.Lookup("g0")
	if err != nil {
		t.Fatal(err)
	}
	if before.Outer == before.Inner {
		t.Fatal("install did not interpose an outer VM")
	}
	if before.Outer != rk.RITM || before.Inner != rk.Victim {
		t.Fatal("lookup does not see the rootkit stack")
	}

	rep, err := f.MigrateVM("g0", "h01")
	if err != nil {
		t.Fatal(err)
	}
	after, err := f.Lookup("g0")
	if err != nil {
		t.Fatal(err)
	}
	if after.Host != "h01" || after.Outer == after.Inner {
		t.Fatalf("after = %+v", after)
	}
	if !after.Inner.Running() || !after.Outer.Running() {
		t.Fatalf("states: outer %v inner %v", after.Outer.State(), after.Inner.State())
	}
	// The nested guest kept the victim's name; the outer instance is a
	// fresh generation.
	if after.Inner.Name() != "g0" {
		t.Fatalf("inner name = %q", after.Inner.Name())
	}
	if after.Outer.Name() == before.Outer.Name() {
		t.Fatalf("outer instance not renamed: %q", after.Outer.Name())
	}
	// Source host fully vacated.
	h0, _ := f.Host("h00")
	if vms := h0.Hypervisor().VMs(); len(vms) != 0 {
		t.Fatalf("source leftovers: %v", vms)
	}
	_ = rep
}

func TestMigrateLinkFailureRetriedToCompletion(t *testing.T) {
	f, err := fleet.New(1, fleet.WithRetry(4, 2*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.StartGuest("h00", "g0", 32); err != nil {
		t.Fatal(err)
	}
	// The link to the destination dies as soon as the migration starts
	// streaming and recovers a while later; the retry loop must carry
	// the guest through.
	f.Engine().Schedule(time.Millisecond, "chaos.down", func() {
		if err := f.SetHostLink("h01", true); err != nil {
			t.Error(err)
		}
	})
	f.Engine().Schedule(20*time.Second, "chaos.up", func() {
		if err := f.SetHostLink("h01", false); err != nil {
			t.Error(err)
		}
	})
	rep, err := f.MigrateVM("g0", "h01")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Attempts < 2 || rep.Retries < 1 {
		t.Fatalf("rep = %+v", rep)
	}
	info, err := f.Lookup("g0")
	if err != nil {
		t.Fatal(err)
	}
	if info.Host != "h01" || !info.Inner.Running() {
		t.Fatalf("info = %+v", info)
	}
}

func TestMigrateRetriesExhaustedKeepsGuestAlive(t *testing.T) {
	f, err := fleet.New(1, fleet.WithRetry(2, time.Second))
	if err != nil {
		t.Fatal(err)
	}
	vm, err := f.StartGuest("h00", "g0", 32)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.SetHostLink("h01", true); err != nil {
		t.Fatal(err)
	}
	rep, err := f.MigrateVM("g0", "h01")
	// The failure is typed all the way down: fleet, migrate, and vnet
	// sentinel errors all match.
	if !errors.Is(err, fleet.ErrMigrationFailed) {
		t.Fatalf("err = %v", err)
	}
	if !errors.Is(err, migrate.ErrAborted) || !errors.Is(err, vnet.ErrLinkDown) {
		t.Fatalf("err = %v", err)
	}
	if rep.Attempts != 2 || rep.Retries != 1 {
		t.Fatalf("rep = %+v", rep)
	}
	// No lost VM: the guest still runs at the source, and the aborted
	// incoming instance was discarded at the destination.
	info, err := f.Lookup("g0")
	if err != nil {
		t.Fatal(err)
	}
	if info.Host != "h00" || info.Inner != vm || !vm.Running() {
		t.Fatalf("info = %+v, state = %v", info, vm.State())
	}
	h1, _ := f.Host("h01")
	if vms := h1.Hypervisor().VMs(); len(vms) != 0 {
		t.Fatalf("destination leftovers: %v", vms)
	}
	// The link recovers; a fresh attempt completes.
	if err := f.SetHostLink("h01", false); err != nil {
		t.Fatal(err)
	}
	if _, err := f.MigrateVM("g0", "h01"); err != nil {
		t.Fatal(err)
	}
}

func TestMigrateToTrustedAndSkip(t *testing.T) {
	f, err := fleet.New(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.StartGuest("h00", "g0", 32); err != nil {
		t.Fatal(err)
	}
	rep, err := f.MigrateToTrusted("g0")
	if err != nil {
		t.Fatal(err)
	}
	if rep.To != "h03" || rep.Skipped {
		t.Fatalf("rep = %+v", rep)
	}
	// Already trusted: no-op.
	rep, err = f.MigrateToTrusted("g0")
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Skipped || rep.From != "h03" || rep.To != "h03" {
		t.Fatalf("rep = %+v", rep)
	}
}

func TestEvacuateHost(t *testing.T) {
	f, err := fleet.New(1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := f.StartGuest("h00", fmt.Sprintf("g%d", i), 32); err != nil {
			t.Fatal(err)
		}
	}
	reports, err := f.EvacuateHost("h00", fleet.Policy{})
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 3 {
		t.Fatalf("reports = %+v", reports)
	}
	if got := f.GuestsOn("h00"); len(got) != 0 {
		t.Fatalf("still on h00: %v", got)
	}
	for _, name := range f.GuestNames() {
		info, err := f.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		if !info.Inner.Running() {
			t.Fatalf("%s: %v", name, info.Inner.State())
		}
	}
}

// WithTestHosts shrinks the default fleet to three hosts (h02 trusted).
func WithTestHosts() fleet.Option {
	return fleet.WithHostSpecs(
		fleet.HostSpec{Name: "h00"},
		fleet.HostSpec{Name: "h01"},
		fleet.HostSpec{Name: "h02", Trusted: true},
	)
}

// install runs the CloudSkulk installer against a fleet guest.
func install(t *testing.T, f *fleet.Fleet, hostName, guestName string) *core.Rootkit {
	t.Helper()
	host, err := f.Host(hostName)
	if err != nil {
		t.Fatal(err)
	}
	icfg := core.InstallConfig{TargetName: guestName, RITMName: guestName + "-x"}
	rk, err := core.Installer{Host: host, Migration: f.Migration()}.Install(icfg)
	if err != nil {
		t.Fatal(err)
	}
	return rk
}

// TestLookupZeroAlloc pins Lookup, which every control-plane read calls,
// at zero allocations for a plain guest and for a guest behind a RITM,
// and checks that it names the right VMs.
func TestLookupZeroAlloc(t *testing.T) {
	f, err := fleet.New(1, WithTestHosts())
	if err != nil {
		t.Fatal(err)
	}
	plain, err := f.StartGuest("h00", "plain", 32)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.StartGuest("h00", "captive", 32); err != nil {
		t.Fatal(err)
	}
	rk := install(t, f, "h00", "captive")
	for _, tc := range []struct {
		guest        string
		outer, inner *qemu.VM
	}{
		{"plain", plain, plain},
		{"captive", rk.RITM, rk.Victim},
	} {
		var info fleet.GuestInfo
		allocs := testing.AllocsPerRun(100, func() {
			if info, err = f.Lookup(tc.guest); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("Lookup(%q) allocates %v objects, want 0", tc.guest, allocs)
		}
		if info.Outer != tc.outer || info.Inner != tc.inner {
			t.Errorf("Lookup(%q) = outer %s, inner %s; want %s, %s", tc.guest,
				info.Outer.Endpoint(), info.Inner.Endpoint(), tc.outer.Endpoint(), tc.inner.Endpoint())
		}
	}
}
