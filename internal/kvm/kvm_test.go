package kvm

import (
	"bufio"
	"errors"
	"fmt"
	"strings"
	"testing"

	"cloudskulk/internal/cpu"
	"cloudskulk/internal/qemu"
	"cloudskulk/internal/sim"
	"cloudskulk/internal/vnet"
)

func newHost(t testing.TB) *Host {
	t.Helper()
	eng := sim.NewEngine(1)
	network := vnet.New(eng)
	h, err := NewHost(eng, network, "host")
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func smallCfg(name string) qemu.Config {
	cfg := qemu.DefaultConfig(name)
	cfg.MemoryMB = 4
	return cfg
}

func TestNewHostRegistersEndpoint(t *testing.T) {
	h := newHost(t)
	if !h.Network().HasEndpoint("host") {
		t.Fatal("host endpoint missing")
	}
	if h.Name() != "host" || h.OS() == nil || h.KSM() == nil || h.Engine() == nil {
		t.Fatal("host accessors broken")
	}
	// Duplicate host name fails.
	if _, err := NewHost(h.Engine(), h.Network(), "host"); err == nil {
		t.Fatal("duplicate host accepted")
	}
}

func TestCreateAndLaunchVM(t *testing.T) {
	h := newHost(t)
	hv := h.Hypervisor()
	cfg := smallCfg("guest0")
	cfg.NetDevs[0].HostFwds = []qemu.FwdRule{{HostPort: 2222, GuestPort: 22}}
	vm, err := hv.CreateVM(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if vm.State() != qemu.StateCreated {
		t.Fatalf("state = %v", vm.State())
	}
	if vm.Level() != cpu.L1 {
		t.Fatalf("level = %v, want L1", vm.Level())
	}
	// Process visible, history recorded, endpoint present, fwd installed.
	procs := h.OS().FindByCommand("qemu-system")
	if len(procs) != 1 || procs[0].PID != vm.PID() {
		t.Fatalf("procs = %v", procs)
	}
	if len(h.OS().HistoryMatching("qemu-system")) != 1 {
		t.Fatal("history not recorded")
	}
	if !h.Network().HasEndpoint("guest0.nic") {
		t.Fatal("vm endpoint missing")
	}
	dst, _, err := h.Network().ResolveForward(vnet.Addr{Endpoint: "host", Port: 2222})
	if err != nil || dst != (vnet.Addr{Endpoint: "guest0.nic", Port: 22}) {
		t.Fatalf("forward resolve = %v, %v", dst, err)
	}
	if h.KSM().NumRegions() != 1 {
		t.Fatalf("ksm regions = %d", h.KSM().NumRegions())
	}
	if err := hv.Launch("guest0"); err != nil {
		t.Fatal(err)
	}
	if !vm.Running() {
		t.Fatalf("state after launch = %v", vm.State())
	}
	if h.Engine().Now() != h.BootTime {
		t.Fatalf("boot charged %v, want %v", h.Engine().Now(), h.BootTime)
	}
}

func TestCreateVMDuplicateName(t *testing.T) {
	h := newHost(t)
	if _, err := h.Hypervisor().CreateVM(smallCfg("g")); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Hypervisor().CreateVM(smallCfg("g")); !errors.Is(err, ErrVMExists) {
		t.Fatalf("err = %v", err)
	}
}

func TestCreateVMConflictingHostPort(t *testing.T) {
	h := newHost(t)
	a := smallCfg("a")
	a.NetDevs[0].HostFwds = []qemu.FwdRule{{HostPort: 2222, GuestPort: 22}}
	if _, err := h.Hypervisor().CreateVM(a); err != nil {
		t.Fatal(err)
	}
	b := smallCfg("b")
	b.NetDevs[0].HostFwds = []qemu.FwdRule{{HostPort: 2222, GuestPort: 22}}
	if _, err := h.Hypervisor().CreateVM(b); err == nil {
		t.Fatal("conflicting host port accepted")
	}
	// Failed create must not leak the endpoint.
	if h.Network().HasEndpoint("b.nic") {
		t.Fatal("endpoint leaked from failed create")
	}
}

func TestLaunchUnknownVM(t *testing.T) {
	h := newHost(t)
	if err := h.Hypervisor().Launch("ghost"); !errors.Is(err, ErrNoSuchVM) {
		t.Fatalf("err = %v", err)
	}
}

func TestKillTearsEverythingDown(t *testing.T) {
	h := newHost(t)
	hv := h.Hypervisor()
	cfg := smallCfg("guest0")
	cfg.NetDevs[0].HostFwds = []qemu.FwdRule{{HostPort: 2222, GuestPort: 22}}
	vm, err := hv.CreateVM(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := hv.Launch("guest0"); err != nil {
		t.Fatal(err)
	}
	pid := vm.PID()
	if err := hv.Kill("guest0"); err != nil {
		t.Fatal(err)
	}
	if vm.State() != qemu.StateShutOff {
		t.Fatalf("state = %v", vm.State())
	}
	if _, ok := h.OS().Process(pid); ok {
		t.Fatal("process survived kill")
	}
	if h.Network().HasEndpoint("guest0.nic") {
		t.Fatal("endpoint survived kill")
	}
	if _, _, err := h.Network().ResolveForward(vnet.Addr{Endpoint: "host", Port: 2222}); err != nil {
		t.Fatal(err)
	}
	if dst, _, _ := h.Network().ResolveForward(vnet.Addr{Endpoint: "host", Port: 2222}); dst != (vnet.Addr{Endpoint: "host", Port: 2222}) {
		t.Fatal("forward survived kill")
	}
	if h.KSM().NumRegions() != 0 {
		t.Fatal("ksm region survived kill")
	}
	if err := hv.Kill("guest0"); !errors.Is(err, ErrNoSuchVM) {
		t.Fatalf("double kill err = %v", err)
	}
}

func TestEnableNesting(t *testing.T) {
	h := newHost(t)
	hv := h.Hypervisor()
	if _, err := hv.CreateVM(smallCfg("guestX")); err != nil {
		t.Fatal(err)
	}
	// Not running yet.
	if _, err := hv.EnableNesting("guestX"); !errors.Is(err, ErrNotRunning) {
		t.Fatalf("err = %v", err)
	}
	if err := hv.Launch("guestX"); err != nil {
		t.Fatal(err)
	}
	inner, err := hv.EnableNesting("guestX")
	if err != nil {
		t.Fatal(err)
	}
	if inner.runLevel != cpu.L1 || inner.GuestLevel() != cpu.L2 {
		t.Fatalf("levels = %v/%v", inner.runLevel, inner.GuestLevel())
	}
	if inner.insideVM == nil || inner.insideVM.Name() != "guestX" {
		t.Fatal("insideVM wrong")
	}
	// Idempotent.
	again, err := hv.EnableNesting("guestX")
	if err != nil || again != inner {
		t.Fatalf("re-enable = %v, %v", again, err)
	}
	if got, ok := hv.Nested("guestX"); !ok || got != inner {
		t.Fatal("Nested lookup failed")
	}

	// Nested VM runs at L2, with forwards bound to guestX's endpoint.
	cfg := smallCfg("nested0")
	cfg.NetDevs[0].HostFwds = []qemu.FwdRule{{HostPort: 4444, GuestPort: 4444}}
	nvm, err := inner.CreateVM(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if nvm.Level() != cpu.L2 {
		t.Fatalf("nested level = %v", nvm.Level())
	}
	dst, _, err := h.Network().ResolveForward(vnet.Addr{Endpoint: "guestX.nic", Port: 4444})
	if err != nil || dst != (vnet.Addr{Endpoint: "guestX/nested0.nic", Port: 4444}) {
		t.Fatalf("nested fwd = %v, %v", dst, err)
	}
	// Nested RAM is physically on the host: KSM sees both.
	if h.KSM().NumRegions() != 2 {
		t.Fatalf("ksm regions = %d", h.KSM().NumRegions())
	}
	// The nested guest's process lives in guestX's OS, not the host's.
	if len(h.OS().FindByCommand("nested0")) != 0 {
		t.Fatal("nested process visible on host OS")
	}
	if len(inner.os.FindByCommand("nested0")) != 1 {
		t.Fatal("nested process missing from guest OS")
	}
}

func TestEnableNestingRequiresKVM(t *testing.T) {
	h := newHost(t)
	hv := h.Hypervisor()
	cfg := smallCfg("noaccel")
	cfg.EnableKVM = false
	if _, err := hv.CreateVM(cfg); err != nil {
		t.Fatal(err)
	}
	if err := hv.Launch("noaccel"); err != nil {
		t.Fatal(err)
	}
	if _, err := hv.EnableNesting("noaccel"); !errors.Is(err, ErrNoKVM) {
		t.Fatalf("err = %v", err)
	}
	if _, err := hv.EnableNesting("ghost"); !errors.Is(err, ErrNoSuchVM) {
		t.Fatalf("err = %v", err)
	}
}

func TestNestingDepthLimit(t *testing.T) {
	h := newHost(t)
	hv := h.Hypervisor()
	if _, err := hv.CreateVM(smallCfg("l1")); err != nil {
		t.Fatal(err)
	}
	if err := hv.Launch("l1"); err != nil {
		t.Fatal(err)
	}
	inner, err := hv.EnableNesting("l1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inner.CreateVM(smallCfg("l2")); err != nil {
		t.Fatal(err)
	}
	if err := inner.Launch("l2"); err != nil {
		t.Fatal(err)
	}
	// L2 guests may host one more level (the deeper-nesting strategy)...
	inner2, err := inner.EnableNesting("l2")
	if err != nil {
		t.Fatal(err)
	}
	if got := inner2.GuestLevel(); got != cpu.L3 {
		t.Fatalf("inner2 guest level = %v, want L3", got)
	}
	if _, err := inner2.CreateVM(smallCfg("l3")); err != nil {
		t.Fatal(err)
	}
	if err := inner2.Launch("l3"); err != nil {
		t.Fatal(err)
	}
	// ...but the stack stops at L3.
	if _, err := inner2.EnableNesting("l3"); !errors.Is(err, ErrNestingDepth) {
		t.Fatalf("err = %v", err)
	}
}

func TestKillGuestDestroysNestedGuests(t *testing.T) {
	h := newHost(t)
	hv := h.Hypervisor()
	if _, err := hv.CreateVM(smallCfg("guestX")); err != nil {
		t.Fatal(err)
	}
	if err := hv.Launch("guestX"); err != nil {
		t.Fatal(err)
	}
	inner, err := hv.EnableNesting("guestX")
	if err != nil {
		t.Fatal(err)
	}
	nvm, err := inner.CreateVM(smallCfg("nested0"))
	if err != nil {
		t.Fatal(err)
	}
	if err := inner.Launch("nested0"); err != nil {
		t.Fatal(err)
	}
	if err := hv.Kill("guestX"); err != nil {
		t.Fatal(err)
	}
	if nvm.State() != qemu.StateShutOff {
		t.Fatalf("nested state = %v", nvm.State())
	}
	if h.Network().HasEndpoint("guestX/nested0.nic") {
		t.Fatal("nested endpoint survived")
	}
	if h.KSM().NumRegions() != 0 {
		t.Fatalf("ksm regions = %d", h.KSM().NumRegions())
	}
}

type stubMigration struct {
	incoming map[vnet.Addr]*qemu.VM
	hosts    map[*qemu.VM]string
	migrated []string
}

func newStubMigration() *stubMigration {
	return &stubMigration{
		incoming: make(map[vnet.Addr]*qemu.VM),
		hosts:    make(map[*qemu.VM]string),
	}
}

func (s *stubMigration) RegisterVM(vm *qemu.VM, hostEndpoint string) {
	s.hosts[vm] = hostEndpoint
}

func (s *stubMigration) Migrate(vm *qemu.VM, uri string) error {
	s.migrated = append(s.migrated, vm.Name()+"->"+uri)
	return nil
}

func (s *stubMigration) RegisterIncoming(vm *qemu.VM, addr vnet.Addr) error {
	if _, dup := s.incoming[addr]; dup {
		return fmt.Errorf("dup %v", addr)
	}
	s.incoming[addr] = vm
	return nil
}

func (s *stubMigration) UnregisterIncoming(addr vnet.Addr) {
	delete(s.incoming, addr)
}

func TestMigrationServiceWiring(t *testing.T) {
	h := newHost(t)
	svc := newStubMigration()
	h.SetMigrationService(svc)
	hv := h.Hypervisor()

	cfg := smallCfg("dst")
	cfg.Incoming = "tcp:0.0.0.0:4444"
	vm, err := hv.CreateVM(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := vnet.Addr{Endpoint: "host", Port: 4444}
	if svc.incoming[want] != vm {
		t.Fatalf("incoming registry = %v", svc.incoming)
	}
	if svc.hosts[vm] != "host" {
		t.Fatalf("host endpoint registry = %v", svc.hosts)
	}
	if err := hv.Launch("dst"); err != nil {
		t.Fatal(err)
	}
	if vm.State() != qemu.StateIncoming {
		t.Fatalf("state = %v", vm.State())
	}
	// Monitor migrate dispatches into the service.
	src, err := hv.CreateVM(smallCfg("src"))
	if err != nil {
		t.Fatal(err)
	}
	if err := hv.Launch("src"); err != nil {
		t.Fatal(err)
	}
	if _, err := src.Monitor().Execute("migrate tcp:127.0.0.1:4444"); err != nil {
		t.Fatal(err)
	}
	if len(svc.migrated) != 1 || svc.migrated[0] != "src->tcp:127.0.0.1:4444" {
		t.Fatalf("migrated = %v", svc.migrated)
	}
	// Kill unregisters the incoming listener.
	if err := hv.Kill("dst"); err != nil {
		t.Fatal(err)
	}
	if len(svc.incoming) != 0 {
		t.Fatalf("incoming after kill = %v", svc.incoming)
	}
}

func TestHostfwdAddViaMonitor(t *testing.T) {
	h := newHost(t)
	hv := h.Hypervisor()
	vm, err := hv.CreateVM(smallCfg("g"))
	if err != nil {
		t.Fatal(err)
	}
	if err := hv.Launch("g"); err != nil {
		t.Fatal(err)
	}
	if _, err := vm.Monitor().Execute("hostfwd_add tcp::2222-:22"); err != nil {
		t.Fatal(err)
	}
	dst, _, err := h.Network().ResolveForward(vnet.Addr{Endpoint: "host", Port: 2222})
	if err != nil || dst != (vnet.Addr{Endpoint: "g.nic", Port: 22}) {
		t.Fatalf("fwd = %v, %v", dst, err)
	}
	// Config view updated too.
	if got := vm.Config().NetDevs[0].HostFwds; len(got) != 1 || got[0] != (qemu.FwdRule{HostPort: 2222, GuestPort: 22}) {
		t.Fatalf("config fwds = %v", got)
	}
	if _, err := vm.Monitor().Execute("hostfwd_remove tcp::2222-:22"); err != nil {
		t.Fatal(err)
	}
	if dst, _, _ := h.Network().ResolveForward(vnet.Addr{Endpoint: "host", Port: 2222}); dst.Endpoint != "host" {
		t.Fatal("fwd survived removal")
	}
	if got := vm.Config().NetDevs[0].HostFwds; len(got) != 0 {
		t.Fatalf("config fwds after remove = %v", got)
	}
}

func TestOpenMonitorByPort(t *testing.T) {
	h := newHost(t)
	hv := h.Hypervisor()
	cfg := smallCfg("victim")
	cfg.MonitorPort = 5555
	if _, err := hv.CreateVM(cfg); err != nil {
		t.Fatal(err)
	}
	if err := hv.Launch("victim"); err != nil {
		t.Fatal(err)
	}
	conn, err := h.OpenMonitor(5555)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	r := bufio.NewReader(conn)
	// net.Pipe is synchronous: drain the greeting + prompt before writing.
	readTo := func(marker string) string {
		var b strings.Builder
		buf := make([]byte, 1)
		for !strings.HasSuffix(b.String(), marker) {
			if _, err := r.Read(buf); err != nil {
				t.Fatalf("read: %v (so far %q)", err, b.String())
			}
			b.Write(buf)
		}
		return b.String()
	}
	readTo("(qemu) ")
	fmt.Fprintf(conn, "info name\n")
	out := readTo("(qemu) ")
	if !strings.Contains(out, "victim") {
		t.Fatalf("monitor session did not answer info name: %q", out)
	}
	fmt.Fprintf(conn, "quit\n")
	if _, err := h.OpenMonitor(9999); !errors.Is(err, ErrNoMonitorPort) {
		t.Fatalf("err = %v", err)
	}
}

func TestVMsListing(t *testing.T) {
	h := newHost(t)
	hv := h.Hypervisor()
	for _, n := range []string{"a", "b", "c"} {
		if _, err := hv.CreateVM(smallCfg(n)); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(hv.VMs()); got != 3 {
		t.Fatalf("VMs = %d", got)
	}
	if _, ok := hv.VM("b"); !ok {
		t.Fatal("VM lookup failed")
	}
	if _, ok := hv.VM("zzz"); ok {
		t.Fatal("phantom VM")
	}
}
