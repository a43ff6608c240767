package kvm

import (
	"strconv"
	"testing"

	"cloudskulk/internal/mem"
	"cloudskulk/internal/qemu"
	"cloudskulk/internal/telemetry"
)

// launched creates and boots a small guest, failing the test on error.
func launched(t *testing.T, hv *Hypervisor, name string) *qemu.VM {
	t.Helper()
	vm, err := hv.CreateVM(smallCfg(name))
	if err != nil {
		t.Fatal(err)
	}
	if err := hv.Launch(name); err != nil {
		t.Fatal(err)
	}
	return vm
}

func nest(t *testing.T, hv *Hypervisor, name string) *Hypervisor {
	t.Helper()
	inner, err := hv.EnableNesting(name)
	if err != nil {
		t.Fatal(err)
	}
	return inner
}

func TestFindByEndpoint(t *testing.T) {
	h := newHost(t)
	l0 := h.Hypervisor()
	g1 := launched(t, l0, "g1")
	l1 := nest(t, l0, "g1")
	g2 := launched(t, l1, "g2")
	// The attacker's trick: a nested guest named like the guest around it.
	twin := launched(t, l1, "g1")
	l2 := nest(t, l1, "g2")
	g3 := launched(t, l2, "g3")

	other, err := NewHost(h.Engine(), h.Network(), "other")
	if err != nil {
		t.Fatal(err)
	}
	stranger := launched(t, other.Hypervisor(), "stranger")

	find := func(hv *Hypervisor, endpoint string) *qemu.VM {
		t.Helper()
		vm, ok := hv.FindByEndpoint(endpoint)
		if ok != (vm != nil) {
			t.Fatalf("FindByEndpoint(%q) = %v, %v", endpoint, vm, ok)
		}
		return vm
	}
	for _, c := range []struct {
		hv       *Hypervisor
		endpoint string
		want     *qemu.VM
	}{
		{l0, "g1.nic", g1},
		{l0, "g1/g2.nic", g2},
		{l0, "g1/g1.nic", twin},
		{l0, "g2/g3.nic", g3},
		{l1, "g2/g3.nic", g3},
		{l2, "g2/g3.nic", g3},
		// Misses: endpoints of the hypervisor above, of another host, of
		// hosts themselves, and names that only look like guests.
		{l1, "g1.nic", nil},
		{l2, "g1/g2.nic", nil},
		{l0, "stranger.nic", nil},
		{other.Hypervisor(), "g1.nic", nil},
		{l0, "host", nil},
		{l0, "g1", nil},
		{l0, "", nil},
		{l0, "g1/g3.nic", nil},
	} {
		if got := find(c.hv, c.endpoint); got != c.want {
			t.Errorf("level %v FindByEndpoint(%q) = %v, want %v", c.hv.GuestLevel(), c.endpoint, got, c.want)
		}
	}
	if got := find(other.Hypervisor(), "stranger.nic"); got != stranger {
		t.Fatalf("other host lookup = %v", got)
	}

	if err := l2.Kill("g3"); err != nil {
		t.Fatal(err)
	}
	if got := find(l0, "g2/g3.nic"); got != nil {
		t.Fatalf("killed L3 guest still found: %v", got)
	}
	if err := l0.Kill("g1"); err != nil {
		t.Fatal(err)
	}
	for _, ep := range []string{"g1.nic", "g1/g2.nic", "g1/g1.nic"} {
		if got := find(l0, ep); got != nil {
			t.Fatalf("%q found after its guest was killed: %v", ep, got)
		}
	}
}

// templateConfigs returns n guest configs shaped like the fleet's: a
// golden-image RAM template, a monitor port, one service forward.
func templateConfigs(n int) []qemu.Config {
	tmpl := mem.Freeze("golden", mem.NewSpace("golden", 4<<20))
	cfgs := make([]qemu.Config, n)
	for i := range cfgs {
		cfg := smallCfg("vm" + strconv.Itoa(i))
		cfg.MemTemplate = tmpl
		cfg.MonitorPort = 10000 + i
		cfg.NetDevs[0].HostFwds = []qemu.FwdRule{{HostPort: 30000 + i, GuestPort: 22}}
		cfgs[i] = cfg
	}
	return cfgs
}

// createAndLaunch is the per-guest work of every fleet placement.
func createAndLaunch(hv *Hypervisor, cfg qemu.Config) error {
	if _, err := hv.CreateVM(cfg); err != nil {
		return err
	}
	return hv.Launch(cfg.Name)
}

// Creating a guest from a template with telemetry attached is the unit
// of work megastorm repeats 102,400 times; its allocations are pinned
// so that per-guest formatting does not creep back in.
func TestCreateVMFromTemplateAllocs(t *testing.T) {
	const runs = 200
	h := newHost(t)
	h.SetTelemetry(telemetry.NewRegistry())
	cfgs := templateConfigs(runs + 1)
	i := 0
	allocs := testing.AllocsPerRun(runs, func() {
		if err := createAndLaunch(h.Hypervisor(), cfgs[i]); err != nil {
			t.Fatal(err)
		}
		i++
	})
	const ceiling = 25
	if allocs > ceiling {
		t.Fatalf("CreateVM+Launch from a template = %.1f allocs per guest, ceiling %d", allocs, ceiling)
	}
}

// BenchmarkCreateVMFromTemplate places guests the way megastorm does, 100
// to a host: a fresh host (set up off the clock) for every hundred guests,
// so the figure is per-guest cost at the fleet's density rather than the
// cost of one host's tables growing without bound.
func BenchmarkCreateVMFromTemplate(b *testing.B) {
	const perHost = 100
	cfgs := templateConfigs(perHost)
	b.ReportAllocs()
	b.ResetTimer()
	var h *Host
	for i := 0; i < b.N; i++ {
		if i%perHost == 0 {
			b.StopTimer()
			h = newHost(b)
			h.SetTelemetry(telemetry.NewRegistry())
			b.StartTimer()
		}
		if err := createAndLaunch(h.Hypervisor(), cfgs[i%perHost]); err != nil {
			b.Fatal(err)
		}
	}
}
