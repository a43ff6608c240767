package core

import (
	"bytes"
	"fmt"
	"time"

	"cloudskulk/internal/mem"
	"cloudskulk/internal/qemu"
	"cloudskulk/internal/sim"
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

// DetachTaps removes all taps from the RITM.
func (rk *Rootkit) DetachTaps() {
	rk.Host.Network().ClearTaps(rk.RITM.Endpoint())
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

// Packets returns everything captured so far.
func (s *Sniffer) Packets() []*vnet.Packet {
	return append([]*vnet.Packet(nil), s.packets...)
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

// AddRule appends a rule.
func (f *ActiveFilter) AddRule(r FilterRule) { f.rules = append(f.rules, r) }

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

// ReadPages dumps n pages of the victim's physical memory starting at page
// `from`.
func (v VMI) ReadPages(from, n int) ([]mem.Content, error) {
	out := make([]mem.Content, 0, n)
	for p := from; p < from+n; p++ {
		c, err := v.vm.RAM().Read(p)
		if err != nil {
			return nil, err
		}
		out = append(out, c)
	}
	return out, nil
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

// OSFingerprint hashes the victim's kernel-image region, the quantity a
// VMI fingerprinting tool would compare.
func (v VMI) OSFingerprint() uint64 {
	return mem.Fingerprint(v.vm.RAM(), KernelPages)
}

// InterceptFilePushes returns a hook that mirrors every file pushed to the
// victim into the RITM's memory at mirrorAt — the "GuestX tries to include
// the same file as L2 does" impersonation the paper's §VI-D2 assumes. The
// RITM sits on the victim's ingress path, so it sees pushed content; it
// cannot see changes the user later makes *inside* the guest, which is the
// asymmetry the dedup detector exploits.
func (rk *Rootkit) InterceptFilePushes(mirrorAt int) func(f *mem.File) {
	return func(f *mem.File) {
		// Best effort: an oversized push simply doesn't fit.
		_ = rk.MirrorFile(f, mirrorAt)
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

// MirrorSync is the paper's §VI-D countermeasure discussion made concrete:
// the attacker periodically polls a region of the victim's memory and
// propagates any change into the RITM's impersonating copy, hoping to keep
// t2 fast even after the guest edits its pages. Its cost is explicit:
// every poll reads the whole tracked region.
type MirrorSync struct {
	ticker       *sim.Ticker
	pagesScanned uint64
	pagesCopied  uint64
	interval     time.Duration
	regionPages  int
}

// StartMirrorSync begins polling victim pages [victimAt, victimAt+n),
// copying changed pages into the RITM at [ritmAt, ritmAt+n), every
// interval. Stop it when done.
func (rk *Rootkit) StartMirrorSync(victimAt, n, ritmAt int, interval time.Duration) *MirrorSync {
	ms := &MirrorSync{interval: interval, regionPages: n}
	ms.ticker = sim.NewTicker(rk.Host.Engine(), interval, "cloudskulk.mirrorsync", func() {
		for i := 0; i < n; i++ {
			vc, err := rk.Victim.RAM().Read(victimAt + i)
			if err != nil {
				return
			}
			ms.pagesScanned++
			rc, err := rk.RITM.RAM().Read(ritmAt + i)
			if err != nil {
				return
			}
			if vc != rc {
				if _, err := rk.RITM.RAM().Write(ritmAt+i, vc); err != nil {
					return
				}
				ms.pagesCopied++
			}
		}
	})
	return ms
}

// Stop halts the synchronizer.
func (ms *MirrorSync) Stop() { ms.ticker.Stop() }

// Overhead reports the countermeasure's cost: pages scanned and copied so
// far, and the steady-state scan rate in pages per second.
func (ms *MirrorSync) Overhead() (scanned, copied uint64, pagesPerSec float64) {
	return ms.pagesScanned, ms.pagesCopied,
		float64(ms.regionPages) / ms.interval.Seconds()
}

// WriteTrackingSync is the strong form of the §VI-D countermeasure: the
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
