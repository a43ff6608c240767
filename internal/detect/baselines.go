package detect

import (
	"sort"

	"cloudskulk/internal/kvm"
	"cloudskulk/internal/mem"
	"cloudskulk/internal/qemu"
)

// This file implements the two alternative detection approaches the
// paper's §VI-E discusses, both of which CloudSkulk can evade — which is
// the paper's argument for the dedup-timing approach.

// VMCSFinding is one VMCS signature located in a guest's memory,
// indicating that guest runs a hardware-assisted hypervisor.
type VMCSFinding struct {
	VMName string
	Page   int
}

// VMCSScanner is the Graziano-style memory-forensic scan: walk every L0
// guest's physical memory looking for VMCS revision-identifier
// signatures. It fails when the nested hypervisor does not use VT-x
// (software MMU) — the blind spot the paper points out.
type VMCSScanner struct {
	Host *kvm.Host
}

// Scan examines all L0 guests and returns any VMCS findings, sorted by VM
// name then page.
func (s VMCSScanner) Scan() []VMCSFinding {
	var out []VMCSFinding
	for _, vm := range s.Host.Hypervisor().VMs() {
		ram := vm.RAM()
		for p := 0; p < ram.NumPages(); p++ {
			if mem.IsVMCS(ram.MustRead(p)) {
				out = append(out, VMCSFinding{VMName: vm.Name(), Page: p})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].VMName != out[j].VMName {
			return out[i].VMName < out[j].VMName
		}
		return out[i].Page < out[j].Page
	})
	return out
}

// FingerprintDB is the VMI-fingerprint baseline: record each guest's
// kernel-image fingerprint at a known-good time, then compare later. An
// attacker who mirrors the victim's kernel into the RITM produces a
// matching fingerprint, which is why the paper rejects this approach.
type FingerprintDB struct {
	// KernelPages is the size of the fingerprinted region.
	KernelPages int
	known       map[string]uint64
}

// NewFingerprintDB returns an empty database using the default kernel
// region size.
func NewFingerprintDB() *FingerprintDB {
	return &FingerprintDB{
		KernelPages: 256,
		known:       make(map[string]uint64),
	}
}

// Baseline records the fingerprint of the named guest as known-good.
func (db *FingerprintDB) Baseline(vm *qemu.VM) {
	db.known[vm.Name()] = db.FingerprintOf(vm)
}

// FingerprintOf computes a guest's current kernel-region fingerprint.
func (db *FingerprintDB) FingerprintOf(vm *qemu.VM) uint64 {
	return mem.Fingerprint(vm.RAM(), db.KernelPages)
}

// Known returns the stored baseline for a guest name, if any.
func (db *FingerprintDB) Known(name string) (uint64, bool) {
	fp, ok := db.known[name]
	return fp, ok
}
