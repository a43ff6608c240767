package core

import (
	"errors"
	"strings"
	"testing"
	"time"

	"cloudskulk/internal/cpu"
	"cloudskulk/internal/kvm"
	"cloudskulk/internal/mem"
	"cloudskulk/internal/migrate"
	"cloudskulk/internal/qemu"
	"cloudskulk/internal/sim"
	"cloudskulk/internal/vnet"
)

// testCloud is a populated host: a victim VM with SSH and monitor ports,
// plus an unrelated co-tenant VM.
type testCloud struct {
	eng    *sim.Engine
	net    *vnet.Network
	host   *kvm.Host
	me     *migrate.Engine
	victim *qemu.VM
}

func newTestCloud(t *testing.T, seed int64) *testCloud {
	t.Helper()
	eng := sim.NewEngine(seed)
	network := vnet.New(eng)
	h, err := kvm.NewHost(eng, network, "host")
	if err != nil {
		t.Fatal(err)
	}
	me := migrate.NewEngine(eng, network)
	h.SetMigrationService(me)

	victimCfg := qemu.DefaultConfig("guest0")
	victimCfg.MemoryMB = 32
	victimCfg.MonitorPort = 5555
	victimCfg.NetDevs[0].HostFwds = []qemu.FwdRule{{HostPort: 2222, GuestPort: 22}}
	victim, err := h.Hypervisor().CreateVM(victimCfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Hypervisor().Launch("guest0"); err != nil {
		t.Fatal(err)
	}

	coCfg := qemu.DefaultConfig("guestM")
	coCfg.MemoryMB = 16
	if _, err := h.Hypervisor().CreateVM(coCfg); err != nil {
		t.Fatal(err)
	}
	if err := h.Hypervisor().Launch("guestM"); err != nil {
		t.Fatal(err)
	}
	return &testCloud{eng: eng, net: network, host: h, me: me, victim: victim}
}

func install(t *testing.T, tc *testCloud, cfg InstallConfig) *Rootkit {
	t.Helper()
	rk, err := Installer{Host: tc.host, Migration: tc.me}.Install(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return rk
}

func defaultTargeted() InstallConfig {
	cfg := DefaultInstallConfig()
	cfg.TargetName = "guest0"
	return cfg
}

func TestReconFindsTargetViaPS(t *testing.T) {
	tc := newTestCloud(t, 1)
	cfg, method, err := Recon{Host: tc.host}.FindTarget("guestX")
	if err != nil {
		t.Fatal(err)
	}
	if method != ReconPS {
		t.Fatalf("method = %v", method)
	}
	// ps finds one of the two guests; both are valid targets.
	if cfg.Name != "guest0" && cfg.Name != "guestM" {
		t.Fatalf("target = %q", cfg.Name)
	}
}

func TestReconFallsBackToHistory(t *testing.T) {
	tc := newTestCloud(t, 1)
	// Root hides the process table entries (e.g. the VMs were started by
	// a supervisor whose children are masked): kill the PS view by
	// renaming commands, leaving history intact.
	for _, p := range tc.host.OS().PS() {
		p.Command = "[masked]"
	}
	cfg, method, err := Recon{Host: tc.host}.FindTarget()
	if err != nil {
		t.Fatal(err)
	}
	if method != ReconHistory {
		t.Fatalf("method = %v", method)
	}
	if !strings.HasPrefix(cfg.Name, "guest") {
		t.Fatalf("target = %q", cfg.Name)
	}
}

func TestReconExcludesAndSkipsIncoming(t *testing.T) {
	tc := newTestCloud(t, 1)
	_, _, err := Recon{Host: tc.host}.FindTarget("guest0", "guestM")
	if !errors.Is(err, ErrNoTarget) {
		t.Fatalf("err = %v", err)
	}
}

func TestConfigViaMonitor(t *testing.T) {
	tc := newTestCloud(t, 1)
	got, err := Recon{Host: tc.host}.ConfigViaMonitor(5555)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != "guest0" {
		t.Fatalf("name = %q", got.Name)
	}
	if got.MemoryMB != 32 {
		t.Fatalf("memory = %d", got.MemoryMB)
	}
	if len(got.Drives) != 1 || got.Drives[0].File != "guest0.qcow2" || got.Drives[0].Format != "qcow2" {
		t.Fatalf("drives = %+v", got.Drives)
	}
	if len(got.NetDevs) != 1 || got.NetDevs[0].Model != "virtio-net-pci" {
		t.Fatalf("netdevs = %+v", got.NetDevs)
	}
	if len(got.NetDevs[0].HostFwds) != 1 || got.NetDevs[0].HostFwds[0] != (qemu.FwdRule{HostPort: 2222, GuestPort: 22}) {
		t.Fatalf("fwds = %+v", got.NetDevs[0].HostFwds)
	}
	// The monitor-derived config is a valid migration twin.
	if err := tc.victim.Config().MatchesForMigration(got); err != nil {
		t.Fatalf("monitor recon not migration-compatible: %v", err)
	}
	if _, err := (Recon{Host: tc.host}).ConfigViaMonitor(9999); err == nil {
		t.Fatal("bogus port accepted")
	}
}

func TestInstallEndToEnd(t *testing.T) {
	tc := newTestCloud(t, 1)
	before := tc.victim.RAM().Snapshot()
	origPID := tc.victim.PID()

	rk := install(t, tc, defaultTargeted())
	rep := rk.Report

	if rep.TargetName != "guest0" || rep.ReconMethod != ReconPS {
		t.Fatalf("report = %+v", rep)
	}
	// The victim now runs nested at L2 with its memory intact.
	if rk.Victim.Level() != cpu.L2 {
		t.Fatalf("victim level = %v", rk.Victim.Level())
	}
	if !rk.Victim.Running() {
		t.Fatalf("victim state = %v", rk.Victim.State())
	}
	after := rk.Victim.RAM().Snapshot()
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("victim page %d changed across the attack", i)
		}
	}
	// The victim keeps its name, so the admin sees "guest0".
	if rk.Victim.Name() != "guest0" {
		t.Fatalf("nested name = %q", rk.Victim.Name())
	}
	// The original source is gone from the L0 hypervisor.
	if _, ok := tc.host.Hypervisor().VM("guest0"); ok {
		t.Fatal("source VM still present on L0")
	}
	// PID and command line takeover.
	if !rep.PIDPreserved {
		t.Fatal("PID not preserved")
	}
	proc, ok := tc.host.OS().Process(origPID)
	if !ok {
		t.Fatal("original PID vanished")
	}
	if !strings.Contains(proc.Command, "-name guest0") {
		t.Fatalf("command line not spoofed: %q", proc.Command)
	}
	if rk.RITM.PID() != origPID {
		t.Fatalf("ritm pid = %d, want %d", rk.RITM.PID(), origPID)
	}
	// Migration result is recorded and sane.
	if !rep.Migration.Converged || rep.Migration.TotalTime <= 0 {
		t.Fatalf("migration = %+v", rep.Migration)
	}
	if rep.TotalTime < rep.Migration.TotalTime {
		t.Fatal("total install time less than migration time")
	}
	if len(rep.Steps) != 5 {
		t.Fatalf("steps = %v", rep.Steps)
	}
}

func TestInstallScrubsAttackerHistory(t *testing.T) {
	tc := newTestCloud(t, 1)
	install(t, tc, defaultTargeted())
	// The attacker's own launch commands are gone; the victim's
	// original line remains (its absence would itself be a tell).
	if got := tc.host.OS().HistoryMatching("guestX"); len(got) != 0 {
		t.Fatalf("attacker history remains: %v", got)
	}
	if got := tc.host.OS().HistoryMatching("-name guest0"); len(got) == 0 {
		t.Fatal("victim's original history line removed")
	}
}

func TestVictimReachableThroughRITM(t *testing.T) {
	tc := newTestCloud(t, 1)
	rk := install(t, tc, defaultTargeted())

	if err := tc.net.AddEndpoint("client"); err != nil {
		t.Fatal(err)
	}
	var got *vnet.Packet
	if err := tc.net.Listen(vnet.Addr{Endpoint: rk.Victim.Endpoint(), Port: 22},
		func(p *vnet.Packet) { got = p }); err != nil {
		t.Fatal(err)
	}
	// The victim's owner connects exactly as before the attack.
	pkt := &vnet.Packet{
		From:    vnet.Addr{Endpoint: "client", Port: 50000},
		To:      vnet.Addr{Endpoint: "host", Port: 2222},
		Payload: []byte("ssh handshake"),
	}
	if err := tc.net.Send(pkt); err != nil {
		t.Fatal(err)
	}
	tc.eng.Run()
	if got == nil {
		t.Fatal("ssh packet not delivered to captured victim")
	}
	// And it traversed the rootkit.
	route := strings.Join(got.Route, ",")
	if !strings.Contains(route, rk.RITM.Endpoint()) {
		t.Fatalf("route %v does not include the RITM", got.Route)
	}
}

func TestMonitorImpersonation(t *testing.T) {
	tc := newTestCloud(t, 1)
	rk := install(t, tc, defaultTargeted())
	// The admin telnets to the same monitor port and sees the same name.
	got, err := Recon{Host: tc.host}.ConfigViaMonitor(5555)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != "guest0" {
		t.Fatalf("post-attack monitor name = %q", got.Name)
	}
	if got.MemoryMB != 32 {
		t.Fatalf("post-attack memory = %d", got.MemoryMB)
	}
	_ = rk
}

func TestSnifferCapturesVictimTraffic(t *testing.T) {
	tc := newTestCloud(t, 1)
	rk := install(t, tc, defaultTargeted())
	sniffer := NewSniffer()
	if err := rk.AttachTap(sniffer); err != nil {
		t.Fatal(err)
	}
	if err := tc.net.AddEndpoint("client"); err != nil {
		t.Fatal(err)
	}
	if err := tc.net.Listen(vnet.Addr{Endpoint: rk.Victim.Endpoint(), Port: 22},
		func(*vnet.Packet) {}); err != nil {
		t.Fatal(err)
	}
	// Payloads are captured verbatim whatever their leading bytes; the
	// SSH banner opens with 'S' and runs past nine bytes.
	secrets := []string{"SSH-2.0-OpenSSH_9.6", "user: alice", "password: hunter2"}
	for _, s := range secrets {
		pkt := &vnet.Packet{
			From:    vnet.Addr{Endpoint: "client", Port: 50000},
			To:      vnet.Addr{Endpoint: "host", Port: 2222},
			Payload: []byte(s),
		}
		if err := tc.net.Send(pkt); err != nil {
			t.Fatal(err)
		}
	}
	tc.eng.Run()
	caught := sniffer.PayloadsTo(22)
	if len(caught) != len(secrets) {
		t.Fatalf("captured %d payloads", len(caught))
	}
	for i, s := range secrets {
		if string(caught[i]) != s {
			t.Fatalf("keystroke log[%d] = %q, want %q", i, caught[i], s)
		}
	}
	if len(sniffer.Packets()) != len(secrets) {
		t.Fatalf("packets = %d", len(sniffer.Packets()))
	}
}

func TestActiveFilterDropsAndTampers(t *testing.T) {
	tc := newTestCloud(t, 1)
	rk := install(t, tc, defaultTargeted())
	filter := NewActiveFilter(
		FilterRule{Port: 22, Match: []byte("DELETE"), Action: ActionDrop},
	)
	filter.AddRule(FilterRule{Port: 22, Match: []byte("balance=100"), Action: ActionReplace, Replace: []byte("balance=0")})
	if err := rk.AttachTap(filter); err != nil {
		t.Fatal(err)
	}
	if err := tc.net.AddEndpoint("client"); err != nil {
		t.Fatal(err)
	}
	var delivered []*vnet.Packet
	if err := tc.net.Listen(vnet.Addr{Endpoint: rk.Victim.Endpoint(), Port: 22},
		func(p *vnet.Packet) { delivered = append(delivered, p) }); err != nil {
		t.Fatal(err)
	}
	send := func(payload string) error {
		return tc.net.Send(&vnet.Packet{
			From:    vnet.Addr{Endpoint: "client", Port: 50000},
			To:      vnet.Addr{Endpoint: "host", Port: 2222},
			Payload: []byte(payload),
		})
	}
	if err := send("DELETE important-mail"); !errors.Is(err, vnet.ErrDropped) {
		t.Fatalf("drop err = %v", err)
	}
	if err := send("account balance=100 USD"); err != nil {
		t.Fatal(err)
	}
	tc.eng.Run()
	if len(delivered) != 1 {
		t.Fatalf("delivered = %d", len(delivered))
	}
	if string(delivered[0].Payload) != "account balance=0 USD" {
		t.Fatalf("tampered payload = %q", delivered[0].Payload)
	}
	dropped, modified := filter.Stats()
	if dropped != 1 || modified != 1 {
		t.Fatalf("stats = %d/%d", dropped, modified)
	}
	rk.DetachTaps()
	if err := send("DELETE now passes"); err != nil {
		t.Fatal(err)
	}
}

func TestVMIFindsSecretsInVictim(t *testing.T) {
	tc := newTestCloud(t, 1)
	// The victim holds a sensitive file before the attack.
	secret := mem.GenerateFile(tc.eng.RNG(), "customer-db", 16)
	if err := tc.victim.RAM().LoadFile(secret, 1000); err != nil {
		t.Fatal(err)
	}
	rk := install(t, tc, defaultTargeted())
	vmi := rk.VictimVMI()
	at, found := vmi.FindFile(secret)
	if !found {
		t.Fatal("VMI did not find the migrated secret file")
	}
	if at != 1000 {
		t.Fatalf("file found at %d, want 1000", at)
	}
	pages, err := vmi.ReadPages(1000, 16)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range pages {
		if c != secret.Pages[i] {
			t.Fatalf("VMI page %d mismatch", i)
		}
	}
	if _, err := vmi.ReadPages(1<<30, 1); err == nil {
		t.Fatal("out-of-range VMI read succeeded")
	}
	if _, found := vmi.FindFile(&mem.File{}); found {
		t.Fatal("empty file found")
	}
}

func TestMirrorKernelMatchesFingerprint(t *testing.T) {
	tc := newTestCloud(t, 1)
	wantFP := mem.Fingerprint(tc.victim.RAM(), KernelPages)
	rk := install(t, tc, defaultTargeted())
	if got := rk.VictimVMI().OSFingerprint(); got != wantFP {
		t.Fatalf("victim fingerprint changed: %x vs %x", got, wantFP)
	}
	// Impersonation: the RITM's kernel region now matches the victim's.
	if got := mem.Fingerprint(rk.RITM.RAM(), KernelPages); got != wantFP {
		t.Fatalf("ritm fingerprint %x != victim %x", got, wantFP)
	}
}

func TestInstallWithoutImpersonation(t *testing.T) {
	tc := newTestCloud(t, 1)
	cfg := defaultTargeted()
	cfg.Impersonate = false
	wantFP := mem.Fingerprint(tc.victim.RAM(), KernelPages)
	rk := install(t, tc, cfg)
	if got := mem.Fingerprint(rk.RITM.RAM(), KernelPages); got == wantFP {
		t.Fatal("fingerprints match without impersonation (collision?)")
	}
}

func TestVMCSHiding(t *testing.T) {
	hasVMCS := func(rk *Rootkit) bool {
		ram := rk.RITM.RAM()
		for p := 0; p < ram.NumPages(); p++ {
			if mem.IsVMCS(ram.MustRead(p)) {
				return true
			}
		}
		return false
	}
	tc := newTestCloud(t, 1)
	rk := install(t, tc, defaultTargeted())
	if !hasVMCS(rk) {
		t.Fatal("hardware-assisted nesting left no VMCS signature")
	}
	tc2 := newTestCloud(t, 2)
	cfg := defaultTargeted()
	cfg.HideVMCS = true
	rk2 := install(t, tc2, cfg)
	if hasVMCS(rk2) {
		t.Fatal("software-MMU nesting left a VMCS signature")
	}
}

func TestLaunchParasite(t *testing.T) {
	tc := newTestCloud(t, 1)
	rk := install(t, tc, defaultTargeted())
	parasite, err := rk.LaunchParasite("spambot", 8)
	if err != nil {
		t.Fatal(err)
	}
	if !parasite.Running() || parasite.Level() != cpu.L2 {
		t.Fatalf("parasite state/level = %v/%v", parasite.State(), parasite.Level())
	}
	// Victim and parasite run side by side on the inner hypervisor.
	if len(rk.InnerHV.VMs()) != 2 {
		t.Fatalf("inner VMs = %d", len(rk.InnerHV.VMs()))
	}
}

func TestInstallTimingDominatedByMigration(t *testing.T) {
	tc := newTestCloud(t, 1)
	rk := install(t, tc, defaultTargeted())
	rep := rk.Report
	// Paper: installation time is dominated by the nested live
	// migration (plus our modelled boot times for the two new VMs).
	var boots time.Duration
	for _, s := range rep.Steps {
		if s.Name == "launch ritm" || s.Name == "launch nested destination" {
			boots += s.Took
		}
	}
	migPlusBoot := rep.Migration.TotalTime + boots
	if ratio := float64(migPlusBoot) / float64(rep.TotalTime); ratio < 0.95 {
		t.Fatalf("migration+boot only %.0f%% of install time", ratio*100)
	}
}

func TestInstallErrors(t *testing.T) {
	tc := newTestCloud(t, 1)
	cfg := defaultTargeted()
	cfg.TargetName = "ghost"
	if _, err := (Installer{Host: tc.host, Migration: tc.me}).Install(cfg); !errors.Is(err, ErrNoTarget) {
		t.Fatalf("err = %v", err)
	}
	// Install twice: the RITM name collides.
	okCfg := defaultTargeted()
	install(t, tc, okCfg)
	if _, err := (Installer{Host: tc.host, Migration: tc.me}).Install(okCfg); err == nil {
		t.Fatal("second install with same RITM name succeeded")
	}
}

func TestInstallAutoTarget(t *testing.T) {
	tc := newTestCloud(t, 1)
	cfg := DefaultInstallConfig() // no TargetName
	rk := install(t, tc, cfg)
	if rk.Report.TargetName != "guest0" && rk.Report.TargetName != "guestM" {
		t.Fatalf("auto target = %q", rk.Report.TargetName)
	}
}

func TestParseMtreeRAMErrors(t *testing.T) {
	if _, err := parseMtreeRAMMB("garbage"); !errors.Is(err, ErrReconFailed) {
		t.Fatalf("err = %v", err)
	}
}
