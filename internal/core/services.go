package core

import (
	"bytes"
	"fmt"
	"time"

	"cloudskulk/internal/mem"
	"cloudskulk/internal/qemu"
	"cloudskulk/internal/vnet"
)

// This file implements the malicious services the paper's §IV-B describes:
// passive (traffic sniffing, keystroke capture, VMI of the victim,
// parasite VMs) and active (dropping and tampering with the victim's
// traffic). All of them key off the RITM's position on the victim's
// network path and its control of the L1 hypervisor.

// AttachTap interposes a tap on the RITM's endpoint, seeing every packet
// forwarded through it — i.e. all victim traffic.
func (rk *Rootkit) AttachTap(t vnet.Tap) error {
	return rk.Host.Network().AddTap(rk.RITM.Endpoint(), t)
}

// Sniffer is the passive service: it records every packet crossing the
// RITM. Because the victim's writes traverse the rootkit before any
// network-layer encryption the RITM itself would apply downstream, the
// payloads here are the plaintext the paper's write-trap captures.
type Sniffer struct {
	packets []*vnet.Packet
}

var _ vnet.Tap = (*Sniffer)(nil)

// NewSniffer returns an empty sniffer.
func NewSniffer() *Sniffer { return &Sniffer{} }

// Handle implements vnet.Tap: record and pass.
func (s *Sniffer) Handle(pkt *vnet.Packet) vnet.Verdict {
	s.packets = append(s.packets, pkt.Clone())
	return vnet.VerdictPass
}

// PayloadsTo returns captured payloads destined for the given final port —
// e.g. 22 for the keystroke log of an SSH session.
func (s *Sniffer) PayloadsTo(port int) [][]byte {
	var out [][]byte
	for _, p := range s.packets {
		if p.To.Port != port {
			continue
		}
		out = append(out, append([]byte(nil), p.Payload...))
	}
	return out
}

// FilterAction is what an active-service rule does to a matching packet.
type FilterAction int

// Active-service actions.
const (
	// ActionDrop discards the packet (dropped web requests, deleted
	// mail).
	ActionDrop FilterAction = iota + 1
	// ActionReplace rewrites matching payload bytes (tampered web
	// responses).
	ActionReplace
)

// FilterRule matches packets by destination port and payload substring.
type FilterRule struct {
	Port    int // 0 matches any port
	Match   []byte
	Action  FilterAction
	Replace []byte
}

// ActiveFilter is the active service: a rule-driven tamper/drop tap.
type ActiveFilter struct {
	rules    []FilterRule
	dropped  uint64
	modified uint64
}

var _ vnet.Tap = (*ActiveFilter)(nil)

// NewActiveFilter builds a filter with the given rules (evaluated in
// order; first match wins).
func NewActiveFilter(rules ...FilterRule) *ActiveFilter {
	return &ActiveFilter{rules: append([]FilterRule(nil), rules...)}
}

// Handle implements vnet.Tap.
func (f *ActiveFilter) Handle(pkt *vnet.Packet) vnet.Verdict {
	for _, r := range f.rules {
		if r.Port != 0 && pkt.To.Port != r.Port {
			continue
		}
		if len(r.Match) > 0 && !bytes.Contains(pkt.Payload, r.Match) {
			continue
		}
		switch r.Action {
		case ActionDrop:
			f.dropped++
			return vnet.VerdictDrop
		case ActionReplace:
			pkt.Payload = bytes.ReplaceAll(pkt.Payload, r.Match, r.Replace)
			f.modified++
			return vnet.VerdictPass
		}
	}
	return vnet.VerdictPass
}

// Stats reports how many packets were dropped and modified.
func (f *ActiveFilter) Stats() (dropped, modified uint64) {
	return f.dropped, f.modified
}

// VMI is the attacker's introspection of the victim from the L1
// hypervisor: raw reads of the nested guest's physical memory. The paper
// notes that VMI — normally a defensive technique — becomes an attacker
// capability once the attacker owns the hypervisor.
type VMI struct {
	vm *qemu.VM
}

// VictimVMI returns an introspection handle over the captured victim.
func (rk *Rootkit) VictimVMI() VMI {
	return VMI{vm: rk.Victim}
}

// FindFile scans the victim's memory for a known file image and returns
// the page offset where it is resident.
func (v VMI) FindFile(f *mem.File) (int, bool) {
	if f.NumPages() == 0 {
		return 0, false
	}
	ram := v.vm.RAM()
	for p := 0; p <= ram.NumPages()-f.NumPages(); p++ {
		if ram.MustRead(p) != f.Pages[0] {
			continue
		}
		if ram.FileResident(f, p) == f.NumPages() {
			return p, true
		}
	}
	return 0, false
}

// MirrorPage is where InterceptFilePushes mirrors pushed files in the
// RITM's RAM, clear of the kernel-image region.
const MirrorPage = KernelPages + 4096

// InterceptFilePushes returns a hook that mirrors every file pushed to the
// victim into the RITM's memory at MirrorPage — the "GuestX tries to
// include the same file as L2 does" impersonation the paper's §VI-D2
// assumes. The RITM sits on the victim's ingress path, so it sees pushed
// content; it cannot see changes the user later makes *inside* the guest,
// which is the asymmetry the dedup detector exploits.
func (rk *Rootkit) InterceptFilePushes() func(f *mem.File) {
	return func(f *mem.File) {
		// Best effort: an oversized push simply doesn't fit.
		_ = rk.MirrorFile(f, MirrorPage)
	}
}

// MirrorRange copies n pages of the victim's memory into the RITM at the
// same offsets — the attacker keeping GuestX's memory identical to the
// victim's for regions they know about (the stock image, the kernel).
func (rk *Rootkit) MirrorRange(from, n int) error {
	for p := from; p < from+n; p++ {
		c, err := rk.Victim.RAM().Read(p)
		if err != nil {
			return err
		}
		if _, err := rk.RITM.RAM().Write(p, c); err != nil {
			return err
		}
	}
	return nil
}

// WriteTrackingSync is the §VI-D countermeasure made concrete: the
// attacker write-protects a region of the victim's memory from the L1
// hypervisor and propagates every change into the RITM's impersonating
// copy the instant it happens. Evasion is perfect for the tracked region —
// at the price of one trap per guest write there, and of hypervisor
// modifications a code-integrity check would spot (Space.HasWriteHook).
type WriteTrackingSync struct {
	victim *qemu.VM
	traps  uint64
}

// StartWriteTrackingSync traps writes to victim pages
// [victimAt, victimAt+n) and mirrors them to RITM pages at the same
// relative offsets from ritmAt. n < 0 tracks the whole of guest RAM.
func (rk *Rootkit) StartWriteTrackingSync(victimAt, n, ritmAt int) *WriteTrackingSync {
	if n < 0 {
		victimAt, ritmAt = 0, 0
		n = rk.Victim.RAM().NumPages()
	}
	ws := &WriteTrackingSync{victim: rk.Victim}
	rk.Victim.RAM().SetWriteHook(func(page int, c mem.Content) {
		if page < victimAt || page >= victimAt+n {
			return
		}
		ws.traps++
		_, _ = rk.RITM.RAM().Write(ritmAt+(page-victimAt), c)
	})
	return ws
}

// Stop removes the write trap.
func (ws *WriteTrackingSync) Stop() {
	ws.victim.RAM().SetWriteHook(nil)
}

// Traps returns how many guest writes the countermeasure intercepted.
func (ws *WriteTrackingSync) Traps() uint64 { return ws.traps }

// TrapOverhead estimates the guest slowdown the countermeasure inflicts:
// every trapped write costs roughly one nested fault.
func (ws *WriteTrackingSync) TrapOverhead(perTrap time.Duration) time.Duration {
	return time.Duration(ws.traps) * perTrap
}

// LaunchParasite starts an additional, attacker-owned OS beside the victim
// on the inner hypervisor — the paper's phishing/spam/DDoS-zombie hosting
// service. The parasite must fit the RITM's remaining memory.
func (rk *Rootkit) LaunchParasite(name string, memoryMB int64) (*qemu.VM, error) {
	cfg := qemu.DefaultConfig(name)
	cfg.MemoryMB = memoryMB
	vm, err := rk.InnerHV.CreateVM(cfg)
	if err != nil {
		return nil, fmt.Errorf("cloudskulk: parasite: %w", err)
	}
	if err := rk.InnerHV.Launch(name); err != nil {
		return nil, fmt.Errorf("cloudskulk: parasite launch: %w", err)
	}
	return vm, nil
}
