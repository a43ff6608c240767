package core

import (
	"testing"
	"testing/quick"

	"cloudskulk/internal/kvm"
	"cloudskulk/internal/migrate"
	"cloudskulk/internal/qemu"
	"cloudskulk/internal/sim"
	"cloudskulk/internal/vnet"
)

// TestInstallInvariantProperty: for arbitrary seeds and guest sizes, a
// successful installation always (a) preserves the victim's memory
// bit-for-bit, (b) leaves the victim running at L2 under the original
// name, (c) keeps the original host ports routed to it, and (d) keeps the
// original PID alive in the process table.
func TestInstallInvariantProperty(t *testing.T) {
	f := func(seed int64, memSel uint8) bool {
		memMB := int64(8 + int(memSel)%25) // 8..32 MB
		eng := sim.NewEngine(seed)
		network := vnet.New(eng)
		h, err := kvm.NewHost(eng, network, "host")
		if err != nil {
			return false
		}
		me := migrate.NewEngine(eng, network)
		h.SetMigrationService(me)
		cfg := qemu.DefaultConfig("guest0")
		cfg.MemoryMB = memMB
		cfg.MonitorPort = 5555
		cfg.NetDevs[0].HostFwds = []qemu.FwdRule{{HostPort: 2222, GuestPort: 22}}
		victim, err := h.Hypervisor().CreateVM(cfg)
		if err != nil {
			return false
		}
		if err := h.Hypervisor().Launch("guest0"); err != nil {
			return false
		}
		before := victim.RAM().Snapshot()
		origPID := victim.PID()

		rk, err := Installer{Host: h, Migration: me}.Install(InstallConfig{TargetName: "guest0"})
		if err != nil {
			return false
		}

		// (a) memory preserved.
		after := rk.Victim.RAM().Snapshot()
		if len(before) != len(after) {
			return false
		}
		for i := range before {
			if before[i] != after[i] {
				return false
			}
		}
		// (b) running at L2, same name.
		if !rk.Victim.Running() || rk.Victim.Level() != 2 || rk.Victim.Name() != "guest0" {
			return false
		}
		// (c) port still routes to the victim through the RITM.
		dst, hops, err := network.ResolveForward(vnet.Addr{Endpoint: "host", Port: 2222})
		if err != nil || dst.Endpoint != rk.Victim.Endpoint() {
			return false
		}
		routedThroughRITM := false
		for _, hop := range hops {
			if hop == rk.RITM.Endpoint() {
				routedThroughRITM = true
			}
		}
		if !routedThroughRITM {
			return false
		}
		// (d) PID takeover.
		proc, ok := h.OS().Process(origPID)
		return ok && proc.PID == origPID && rk.RITM.PID() == origPID
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}
