package fleet

import (
	"errors"
	"fmt"
	"testing"

	"cloudskulk/internal/core"
	"cloudskulk/internal/kvm"
	"cloudskulk/internal/runner"
)

// exhaustionFleet builds a 3-host fleet (h02 trusted) with tight 256 MB
// budgets, so tests can fill hosts to the brim deterministically.
func exhaustionFleet(t *testing.T) *Fleet {
	t.Helper()
	f, err := New(1, WithHostSpecs(
		HostSpec{Name: "h00", MemMB: 256},
		HostSpec{Name: "h01", MemMB: 256},
		HostSpec{Name: "h02", MemMB: 256, Trusted: true},
	))
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestPickHostAllHostsFull: when every candidate host lacks the free
// memory, both the migration-time and deploy-time scheduler entry points
// reject with ErrNoPlacement instead of over-committing a host.
func TestPickHostAllHostsFull(t *testing.T) {
	f := exhaustionFleet(t)
	for i, h := range f.HostNames() {
		if _, err := f.StartGuest(h, fmt.Sprintf("g%d", i), 224); err != nil {
			t.Fatal(err)
		}
	}
	// Every host has 32 MB free; g0 (224 MB) fits nowhere else.
	if _, err := f.PickHost("g0", Policy{}); !errors.Is(err, ErrNoPlacement) {
		t.Fatalf("PickHost on full fleet = %v, want ErrNoPlacement", err)
	}
	// A fresh 64 MB deploy fits nowhere either.
	if _, err := f.PickHostFor(64, Policy{}); !errors.Is(err, ErrNoPlacement) {
		t.Fatalf("PickHostFor on full fleet = %v, want ErrNoPlacement", err)
	}
	// But a 16 MB deploy still lands — on the first host in name order,
	// since all free budgets tie.
	host, err := f.PickHostFor(16, Policy{})
	if err != nil || host != "h00" {
		t.Fatalf("PickHostFor(16) = %q, %v; want h00", host, err)
	}
}

// TestPickHostAntiAffinityUnsatisfiable: anti-affinity that excludes
// every candidate host surfaces ErrNoPlacement, and relaxing it by one
// guest finds the freed host again.
func TestPickHostAntiAffinityUnsatisfiable(t *testing.T) {
	f := exhaustionFleet(t)
	for i, h := range f.HostNames() {
		if _, err := f.StartGuest(h, fmt.Sprintf("g%d", i), 64); err != nil {
			t.Fatal(err)
		}
	}
	// g0 on h00 must avoid g1 (h01) and g2 (h02): nowhere to go.
	_, err := f.PickHost("g0", Policy{AvoidGuests: []string{"g1", "g2"}})
	if !errors.Is(err, ErrNoPlacement) {
		t.Fatalf("unsatisfiable anti-affinity = %v, want ErrNoPlacement", err)
	}
	// The guest's own name in AvoidGuests must not exclude candidates.
	host, err := f.PickHost("g0", Policy{AvoidGuests: []string{"g0", "g1"}})
	if err != nil || host != "h02" {
		t.Fatalf("self-affinity ignored: got %q, %v; want h02", host, err)
	}
	// Trusted-only plus anti-affinity against the trusted resident: the
	// two constraints together are unsatisfiable.
	_, err = f.PickHost("g0", Policy{RequireTrusted: true, AvoidGuests: []string{"g2"}})
	if !errors.Is(err, ErrNoPlacement) {
		t.Fatalf("trusted+anti-affinity = %v, want ErrNoPlacement", err)
	}
	// Deploy-time placement honours the same anti-affinity filter.
	_, err = f.PickHostFor(16, Policy{AvoidGuests: []string{"g0", "g1", "g2"}})
	if !errors.Is(err, ErrNoPlacement) {
		t.Fatalf("PickHostFor blanket anti-affinity = %v, want ErrNoPlacement", err)
	}
}

// TestPickHostTieBreakDeterministicAcrossWorkers: with every candidate
// free-budget tied, repeated placement decisions replayed through the
// sweep runner at different worker counts produce the identical host
// sequence — the scheduler property all experiment goldens rest on.
func TestPickHostTieBreakDeterministicAcrossWorkers(t *testing.T) {
	decide := func(workers int) []string {
		out, err := runner.Map(8, runner.Options{Workers: workers}, func(i int) (string, error) {
			f, err := New(7, WithHosts(6))
			if err != nil {
				return "", err
			}
			// i guests of equal size spread by the scheduler itself, then
			// one deploy decision and one migration decision recorded.
			for g := 0; g < i; g++ {
				host, err := f.PickHostFor(64, Policy{})
				if err != nil {
					return "", err
				}
				if _, err := f.StartGuest(host, fmt.Sprintf("g%d", g), 64); err != nil {
					return "", err
				}
			}
			dep, err := f.PickHostFor(64, Policy{})
			if err != nil {
				return "", err
			}
			if i == 0 {
				return dep, nil
			}
			mig, err := f.PickHost("g0", Policy{})
			if err != nil {
				return "", err
			}
			return dep + "/" + mig, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	serial := decide(1)
	wide := decide(8)
	for i := range serial {
		if serial[i] != wide[i] {
			t.Fatalf("cell %d: serial %q != wide %q", i, serial[i], wide[i])
		}
	}
	// And the equal-budget tie genuinely breaks by name: an empty fleet
	// always places on the lexicographically first host.
	if serial[0] != "h00" {
		t.Fatalf("empty-fleet placement = %q, want h00", serial[0])
	}
}

// TestStartGuestRejectsCrossHostDuplicate (regression): a guest name in
// use on *another* host must be rejected with the fleet's typed
// ErrDuplicateGuest — naming the occupying host — not with whatever
// hypervisor- or fabric-level collision happens to fire first.
func TestStartGuestRejectsCrossHostDuplicate(t *testing.T) {
	f, err := New(1, WithHosts(4))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.StartGuest("h00", "web", 64); err != nil {
		t.Fatal(err)
	}
	_, err = f.StartGuest("h01", "web", 64)
	if !errors.Is(err, ErrDuplicateGuest) {
		t.Fatalf("cross-host duplicate = %v, want ErrDuplicateGuest", err)
	}
	if got := err.Error(); !contains(got, "h00") {
		t.Fatalf("duplicate error should name the occupying host: %q", got)
	}

	// Instance names that never enter the registry — migration clones —
	// also collide fleet-wide. Migrate web (clone instance web-g1 lands
	// on h01), then try to start a guest *named like the clone* on a
	// third host.
	if _, err := f.MigrateVM("web", "h01"); err != nil {
		t.Fatal(err)
	}
	_, err = f.StartGuest("h02", "web-g1", 64)
	if !errors.Is(err, ErrDuplicateGuest) {
		t.Fatalf("clone-name collision = %v, want ErrDuplicateGuest", err)
	}
	if got := err.Error(); !contains(got, "h01") {
		t.Fatalf("clone collision should name the occupying host: %q", got)
	}
}

// TestStopGuestFreesBudgetAndName: stopping a guest kills its backing
// instance, frees the host budget, and releases the name for reuse.
func TestStopGuestFreesBudgetAndName(t *testing.T) {
	f, err := New(1, WithHosts(2))
	if err != nil {
		t.Fatal(err)
	}
	free := f.FreeMemMB("h00")
	if _, err := f.StartGuest("h00", "web", 128); err != nil {
		t.Fatal(err)
	}
	if err := f.StopGuest("web"); err != nil {
		t.Fatal(err)
	}
	if got := f.FreeMemMB("h00"); got != free {
		t.Fatalf("budget not freed: %d, want %d", got, free)
	}
	if _, err := f.Lookup("web"); !errors.Is(err, ErrUnknownGuest) {
		t.Fatalf("lookup after stop = %v, want ErrUnknownGuest", err)
	}
	if err := f.StopGuest("web"); !errors.Is(err, ErrUnknownGuest) {
		t.Fatalf("double stop = %v, want ErrUnknownGuest", err)
	}
	// The name is genuinely reusable: the old instance is gone from the
	// hypervisor and the fabric.
	if _, err := f.StartGuest("h01", "web", 64); err != nil {
		t.Fatalf("restart after stop: %v", err)
	}
}

// contains avoids importing strings into a sim-facing test file for one
// helper.
func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestNameIndexMatchesHosts: every host of a fleet counts its L0 instance
// names in one shared index, and a recount from every host's hypervisor
// matches it after deploys, a migration (which leaves a clone instance
// name behind), a stop, a rootkit install (an interposed L0 VM; the
// nested victim lives in its namespace and is not counted) and a
// migration of the infected guest.
func TestNameIndexMatchesHosts(t *testing.T) {
	f, err := New(1, WithHosts(3))
	if err != nil {
		t.Fatal(err)
	}
	var hosts []*kvm.Host
	for _, h := range f.order {
		hosts = append(hosts, h.Host)
	}
	recount := func(step string) {
		t.Helper()
		if err := f.names.Check(hosts); err != nil {
			t.Fatalf("after %s: %v", step, err)
		}
	}
	for i, g := range []string{"g0", "g1", "g2"} {
		if _, err := f.StartGuest(fmt.Sprintf("h%02d", i%2), g, 32); err != nil {
			t.Fatal(err)
		}
	}
	recount("deploys")
	if _, err := f.MigrateVM("g1", "h02"); err != nil {
		t.Fatal(err)
	}
	recount("a migration")
	if err := f.StopGuest("g2"); err != nil {
		t.Fatal(err)
	}
	recount("a stop")
	icfg := core.InstallConfig{TargetName: "g0", RITMName: "g0-x"}
	if _, err := (core.Installer{Host: f.hosts["h00"].Host, Migration: f.Migration()}).Install(icfg); err != nil {
		t.Fatal(err)
	}
	recount("a rootkit install")
	if _, err := f.StartGuest("h02", "g0-x", 32); !errors.Is(err, ErrDuplicateGuest) {
		t.Fatalf("guest named like the interposed VM: %v, want ErrDuplicateGuest", err)
	}
	if _, err := f.MigrateVM("g0", "h01"); err != nil {
		t.Fatal(err)
	}
	recount("migrating the infected guest")
}
