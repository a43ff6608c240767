package virtman

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"cloudskulk/internal/kvm"
	"cloudskulk/internal/migrate"
	"cloudskulk/internal/qemu"
	"cloudskulk/internal/sim"
	"cloudskulk/internal/vnet"
)

func newManager(t *testing.T) (*Manager, *kvm.Host) {
	t.Helper()
	eng := sim.NewEngine(1)
	network := vnet.New(eng)
	h, err := kvm.NewHost(eng, network, "host")
	if err != nil {
		t.Fatal(err)
	}
	me := migrate.NewEngine(eng, network)
	h.SetMigrationService(me)
	return NewManager(h), h
}

func sampleDef(name string) DomainDef {
	return DomainDef{
		Name:     name,
		MemoryMB: 16,
		VCPUs:    1,
		KVM:      true,
		Interfaces: []IfaceDef{{
			Model:    "virtio-net-pci",
			Forwards: []PortPair{{Host: 2222, Guest: 22}},
		}},
	}
}

func TestDefineStartDestroyLifecycle(t *testing.T) {
	m, h := newManager(t)
	d, err := m.Define(sampleDef("web"))
	if err != nil {
		t.Fatal(err)
	}
	if d.State() != StateDefined || d.Active() {
		t.Fatalf("fresh state = %v", d.State())
	}
	if err := m.Start("web"); err != nil {
		t.Fatal(err)
	}
	if d.State() != StateRunning || d.VM() == nil {
		t.Fatalf("state = %v", d.State())
	}
	// Forward materialized on the network.
	dst, _, err := h.Network().ResolveForward(vnet.Addr{Endpoint: "host", Port: 2222})
	if err != nil || dst.Endpoint != "web.nic" {
		t.Fatalf("forward = %v %v", dst, err)
	}
	if err := m.Suspend("web"); err != nil {
		t.Fatal(err)
	}
	if d.State() != StatePaused {
		t.Fatalf("state = %v", d.State())
	}
	if err := m.Resume("web"); err != nil {
		t.Fatal(err)
	}
	if err := m.Reboot("web"); err != nil {
		t.Fatal(err)
	}
	if d.State() != StateRunning {
		t.Fatalf("state after reboot = %v", d.State())
	}
	if err := m.Destroy("web"); err != nil {
		t.Fatal(err)
	}
	if d.Active() || d.State() != StateDefined {
		t.Fatalf("state after destroy = %v", d.State())
	}
	// The definition persists; it can start again.
	if err := m.Start("web"); err != nil {
		t.Fatal(err)
	}
	if err := m.Destroy("web"); err != nil {
		t.Fatal(err)
	}
	if err := m.Undefine("web"); err != nil {
		t.Fatal(err)
	}
	if _, ok := m.Domain("web"); ok {
		t.Fatal("domain survived undefine")
	}
}

func TestLifecycleErrors(t *testing.T) {
	m, _ := newManager(t)
	if _, err := m.Define(sampleDef("a")); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Define(sampleDef("a")); !errors.Is(err, ErrDomainExists) {
		t.Fatalf("err = %v", err)
	}
	if err := m.Start("ghost"); !errors.Is(err, ErrNoSuchDomain) {
		t.Fatalf("err = %v", err)
	}
	if err := m.Destroy("a"); !errors.Is(err, ErrDomainNotActive) {
		t.Fatalf("err = %v", err)
	}
	if err := m.Start("a"); err != nil {
		t.Fatal(err)
	}
	if err := m.Start("a"); !errors.Is(err, ErrDomainActive) {
		t.Fatalf("err = %v", err)
	}
	if err := m.Undefine("a"); !errors.Is(err, ErrDomainActive) {
		t.Fatalf("err = %v", err)
	}
	if err := m.Reboot("ghost"); !errors.Is(err, ErrNoSuchDomain) {
		t.Fatalf("err = %v", err)
	}
	if err := m.Suspend("ghost"); !errors.Is(err, ErrNoSuchDomain) {
		t.Fatalf("err = %v", err)
	}
	if err := m.Resume("ghost"); !errors.Is(err, ErrNoSuchDomain) {
		t.Fatalf("err = %v", err)
	}
	if err := m.Migrate("ghost", "tcp:x:1"); !errors.Is(err, ErrNoSuchDomain) {
		t.Fatalf("err = %v", err)
	}
}

func TestValidate(t *testing.T) {
	bad := []DomainDef{
		{},
		{Name: "x"},
		{Name: "x", MemoryMB: 16},
		{Name: "x", MemoryMB: 16, VCPUs: 1,
			Interfaces: []IfaceDef{{Forwards: []PortPair{{Host: -1, Guest: 22}}}}},
	}
	for i, def := range bad {
		if err := def.Validate(); !errors.Is(err, ErrBadDefinition) {
			t.Fatalf("case %d err = %v", i, err)
		}
	}
}

func TestToConfigCarriesDefinition(t *testing.T) {
	def := sampleDef("rt")
	def.MonitorPort = 5555
	def.Disks = []DiskDef{{File: "rt.qcow2", Format: "qcow2", SizeMB: 1024}}
	cfg := def.ToConfig()
	if cfg.Name != def.Name || cfg.MemoryMB != def.MemoryMB || cfg.MonitorPort != 5555 {
		t.Fatalf("config = %+v", cfg)
	}
	if len(cfg.NetDevs) != 1 || len(cfg.NetDevs[0].HostFwds) != 1 ||
		cfg.NetDevs[0].HostFwds[0] != (qemu.FwdRule{HostPort: 2222, GuestPort: 22}) {
		t.Fatalf("netdevs = %+v", cfg.NetDevs)
	}
	if len(cfg.Drives) != 1 || cfg.Drives[0] != (qemu.Drive{File: "rt.qcow2", Format: "qcow2", SizeMB: 1024}) {
		t.Fatalf("drives = %+v", cfg.Drives)
	}
}

func TestToConfigDefaults(t *testing.T) {
	def := DomainDef{Name: "min", MemoryMB: 8, VCPUs: 1}
	cfg := def.ToConfig()
	if cfg.Machine == "" || len(cfg.Drives) != 1 || len(cfg.NetDevs) != 1 {
		t.Fatalf("defaults missing: %+v", cfg)
	}
}

func TestDefineJSONAndDump(t *testing.T) {
	m, _ := newManager(t)
	raw := `{"name":"fromjson","memory_mb":16,"vcpus":1,"kvm":true,"autostart":true}`
	d, err := m.DefineJSON([]byte(raw))
	if err != nil {
		t.Fatal(err)
	}
	if !d.Def.Autostart {
		t.Fatal("autostart lost")
	}
	dump, err := m.DumpJSON("fromjson")
	if err != nil {
		t.Fatal(err)
	}
	var back DomainDef
	if err := json.Unmarshal(dump, &back); err != nil {
		t.Fatal(err)
	}
	if back.Name != "fromjson" || back.MemoryMB != 16 {
		t.Fatalf("dump round trip = %+v", back)
	}
	if _, err := m.DefineJSON([]byte("{nope")); !errors.Is(err, ErrBadDefinition) {
		t.Fatalf("bad json err = %v", err)
	}
	if _, err := m.DumpJSON("ghost"); !errors.Is(err, ErrNoSuchDomain) {
		t.Fatalf("err = %v", err)
	}
}

func TestAutostartAll(t *testing.T) {
	m, _ := newManager(t)
	a := sampleDef("auto-a")
	a.Autostart = true
	a.Interfaces = nil
	b := sampleDef("manual-b")
	b.Interfaces = nil
	c := sampleDef("auto-c")
	c.Autostart = true
	c.Interfaces = nil
	for _, def := range []DomainDef{a, b, c} {
		if _, err := m.Define(def); err != nil {
			t.Fatal(err)
		}
	}
	started, err := m.AutostartAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(started) != 2 || started[0] != "auto-a" || started[1] != "auto-c" {
		t.Fatalf("started = %v", started)
	}
	if d, _ := m.Domain("manual-b"); d.Active() {
		t.Fatal("manual domain autostarted")
	}
	// Idempotent: nothing more to start.
	started, err = m.AutostartAll()
	if err != nil || len(started) != 0 {
		t.Fatalf("second pass = %v %v", started, err)
	}
}

func TestManagedMigration(t *testing.T) {
	m, _ := newManager(t)
	src := sampleDef("src")
	src.Interfaces = nil
	dst := sampleDef("dst")
	dst.Interfaces = nil
	dst.Incoming = "tcp:0.0.0.0:4444"
	for _, def := range []DomainDef{src, dst} {
		if _, err := m.Define(def); err != nil {
			t.Fatal(err)
		}
		if err := m.Start(def.Name); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Migrate("src", "tcp:127.0.0.1:4444"); err != nil {
		t.Fatal(err)
	}
	d, _ := m.Domain("dst")
	if d.State() != StateRunning {
		t.Fatalf("dst state = %v", d.State())
	}
	s, _ := m.Domain("src")
	if s.State() != StatePaused {
		t.Fatalf("src state = %v", s.State())
	}
}

func TestShellCommands(t *testing.T) {
	m, _ := newManager(t)
	run := func(line string) string {
		t.Helper()
		out, err := Execute(m, line)
		if err != nil {
			t.Fatalf("%q: %v", line, err)
		}
		return out
	}
	out := run(`define {"name":"web","memory_mb":16,"vcpus":1,"kvm":true}`)
	if !strings.Contains(out, "Domain web defined") {
		t.Fatalf("define out = %q", out)
	}
	out = run("list --all")
	if !strings.Contains(out, "web") || !strings.Contains(out, "shut off") {
		t.Fatalf("list out:\n%s", out)
	}
	run("start web")
	out = run("list")
	if !strings.Contains(out, "running") {
		t.Fatalf("list after start:\n%s", out)
	}
	out = run("dumpjson web")
	if !strings.Contains(out, `"memory_mb": 16`) {
		t.Fatalf("dumpjson:\n%s", out)
	}
	run("suspend web")
	run("resume web")
	run("reboot web")
	run("destroy web")
	run("undefine web")
	if out := run("list --all"); strings.Contains(out, "web") {
		t.Fatalf("web survived:\n%s", out)
	}
	if out := run(""); out != "" {
		t.Fatalf("empty line out = %q", out)
	}
	// Error paths surface as errors.
	for _, bad := range []string{
		"frobnicate", "start", "define", "start ghost", "list --all --extra",
	} {
		if _, err := Execute(m, bad); err == nil && bad != "list --all --extra" {
			t.Fatalf("%q accepted", bad)
		}
	}
}
