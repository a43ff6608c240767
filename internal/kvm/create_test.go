package kvm

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"testing"

	"cloudskulk/internal/cpu"
	"cloudskulk/internal/mem"
	"cloudskulk/internal/qemu"
	"cloudskulk/internal/telemetry"
	"cloudskulk/internal/vnet"
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
// of work megastorm repeats 102,400 times; its allocations are pinned at
// today's count so that per-guest formatting and side tables nothing
// reads do not creep back in.
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
	const ceiling = 14
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

// hostState renders everything CreateVM touches on h for the guest named
// name and the given host ports: the process table, the KSM scan set, the
// guest's endpoint and attachment, the forwards and listeners on the host
// ports, the hypervisor's forward bookkeeping, the migration registry and
// the name index.
func hostState(h *Host, svc *stubMigration, name string, ports []int) string {
	var b strings.Builder
	for _, p := range h.OS().PS() {
		fmt.Fprintf(&b, "proc %d %s\n", p.PID, p.Command)
	}
	fmt.Fprintf(&b, "ksm regions %d\n", h.KSM().NumRegions())
	ep := name + nicSuffix
	fmt.Fprintf(&b, "endpoint %s %t root %s\n", ep, h.Network().HasEndpoint(ep), h.Network().RootOf(ep))
	for _, port := range ports {
		addr := vnet.Addr{Endpoint: h.Name(), Port: port}
		final, hops, err := h.Network().ResolveForward(addr)
		fmt.Fprintf(&b, "port %d -> %v via %v (%v) listening %t\n", port, final, hops, err, h.Network().Listening(addr))
	}
	fwdNames := make([]string, 0, len(h.hv.fwds))
	for n := range h.hv.fwds {
		fwdNames = append(fwdNames, n)
	}
	sort.Strings(fwdNames)
	for _, n := range fwdNames {
		fmt.Fprintf(&b, "fwds %s %v\n", n, h.hv.fwds[n])
	}
	for addr, vm := range svc.incoming {
		fmt.Fprintf(&b, "incoming %v %s\n", addr, vm.Name())
	}
	fmt.Fprintf(&b, "migration vms %d\n", len(svc.hosts))
	names := make([]string, 0, len(h.names.n))
	for n, k := range h.names.n {
		names = append(names, fmt.Sprintf("%s=%d", n, k))
	}
	sort.Strings(names)
	fmt.Fprintf(&b, "names %v\n", names)
	return b.String()
}

// TestFailedCreateVMLeavesNoTrace (regression): a CreateVM that fails —
// on a malformed -incoming URI, a host port another guest forwards, a
// host port its own config forwards twice, or an -incoming port already
// bound — leaves the host exactly as it found it, and the name is free
// for a retry with a valid config.
func TestFailedCreateVMLeavesNoTrace(t *testing.T) {
	ports := []int{2222, 3333, 4444}
	for _, c := range []struct {
		name string
		bad  func(*qemu.Config)
	}{
		{"bad incoming URI", func(cfg *qemu.Config) { cfg.Incoming = "bogus" }},
		{"host port taken", func(cfg *qemu.Config) {
			cfg.NetDevs[0].HostFwds = []qemu.FwdRule{{HostPort: 3333, GuestPort: 22}, {HostPort: 2222, GuestPort: 22}}
		}},
		{"host port twice", func(cfg *qemu.Config) {
			cfg.NetDevs[0].HostFwds = []qemu.FwdRule{{HostPort: 3333, GuestPort: 22}, {HostPort: 3333, GuestPort: 80}}
		}},
		{"incoming port bound", func(cfg *qemu.Config) {
			cfg.NetDevs[0].HostFwds = []qemu.FwdRule{{HostPort: 3333, GuestPort: 22}}
			cfg.Incoming = "tcp:0.0.0.0:4444"
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			h := newHost(t)
			h.ShareNames(NewNames())
			svc := newStubMigration()
			h.SetMigrationService(svc)
			hv := h.Hypervisor()
			occupant := smallCfg("a")
			occupant.NetDevs[0].HostFwds = []qemu.FwdRule{{HostPort: 2222, GuestPort: 22}}
			if _, err := hv.CreateVM(occupant); err != nil {
				t.Fatal(err)
			}
			if err := h.Network().Listen(vnet.Addr{Endpoint: "host", Port: 4444}, func(*vnet.Packet) {}); err != nil {
				t.Fatal(err)
			}

			before := hostState(h, svc, "b", ports)
			cfg := smallCfg("b")
			c.bad(&cfg)
			if _, err := hv.CreateVM(cfg); err == nil {
				t.Fatal("bad config accepted")
			}
			if after := hostState(h, svc, "b", ports); after != before {
				t.Fatalf("failed CreateVM changed the host:\nbefore\n%safter\n%s", before, after)
			}

			good := smallCfg("b")
			good.NetDevs[0].HostFwds = []qemu.FwdRule{{HostPort: 3333, GuestPort: 22}}
			vm, err := hv.CreateVM(good)
			if err != nil {
				t.Fatalf("retry under the same name: %v", err)
			}
			if final, _, _ := h.Network().ResolveForward(vnet.Addr{Endpoint: "host", Port: 3333}); final.Endpoint != vm.Endpoint() {
				t.Fatalf("host:3333 resolves to %v, want %s", final, vm.Endpoint())
			}
			if got := h.hv.fwds["b"]; len(got) != 1 {
				t.Fatalf("forward bookkeeping for b = %v, want one entry", got)
			}
			if err := h.names.Check([]*Host{h}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestVCPUTelemetryFollowsHostModel: the vCPUs of a host's guests share
// counter handles resolved once per level, and those follow the host:
// a guest created after Host.Model changes counts exits with the new
// multiplier, and one created after SetTelemetry counts in the new
// registry.
func TestVCPUTelemetryFollowsHostModel(t *testing.T) {
	h := newHost(t)
	reg := telemetry.NewRegistry()
	h.SetTelemetry(reg)
	launched(t, h.Hypervisor(), "outer")
	inner := nest(t, h.Hypervisor(), "outer")
	op := cpu.IOOp("out", cpu.Micros(1), 1)
	key := telemetry.Key("cpu_exits_total", "class", "io", "level", "L2")

	first := uint64(1 + h.Model.ExitMultiplier)
	launched(t, inner, "a").VCPU().Exec(op, 1)
	if got := reg.Counter(key).Value(); got != first {
		t.Fatalf("L2 exits = %d, want %d", got, first)
	}
	h.Model.ExitMultiplier = 3
	launched(t, inner, "b").VCPU().Exec(op, 1)
	if got, want := reg.Counter(key).Value(), first+1+3; got != want {
		t.Fatalf("L2 exits after the model changed = %d, want %d", got, want)
	}
	reg2 := telemetry.NewRegistry()
	h.SetTelemetry(reg2)
	launched(t, inner, "c").VCPU().Exec(op, 1)
	if got := reg2.Counter(key).Value(); got != 4 {
		t.Fatalf("L2 exits in the new registry = %d, want 4", got)
	}
}
