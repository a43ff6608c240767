// Package hv is the backend-neutral hypervisor layer: the registered
// cost profiles that make substrates interchangeable.
//
// The paper's results are calibrated to one machine — an Intel i7-4790
// running QEMU 2.9/KVM — but the phenomena it studies (nested-exit
// multiplication, shadow-EPT faults, KSM copy-on-write write timing) are
// properties of *any* hardware-virtualization substrate; only the
// constants differ. This package separates the two: the mechanics live in
// internal/cpu, internal/kvm, and internal/ksm, while the constants are a
// Profile registered here under a backend name. Experiments and fleets
// select a backend by name and run unchanged; artefact goldens are pinned
// per backend.
//
// Every backend runs the same mechanism, so a Profile plus the registry
// carries every difference between them; there is no per-backend code.
package hv

import (
	"time"

	"cloudskulk/internal/cpu"
	"cloudskulk/internal/ksm"
)

// Profile is a backend's calibrated cost model: every constant the
// simulation charges that depends on the hypervisor substrate rather than
// on the workload. Two backends with different Profiles run the same
// experiments and differ only in these numbers.
type Profile struct {
	// CPU is the exit-cost model: world-switch cost, the Turtles
	// exit-multiplication factor, shadow-EPT fault cost, per-level
	// compute drift and kernel-path padding.
	CPU cpu.Model
	// KSM is the samepage-merging write-cost model — the regular-write
	// vs COW-break-write gap the paper's detector times.
	KSM ksm.CostModel
	// BootTime is charged per VM launch (BIOS + kernel + userspace).
	BootTime time.Duration
	// ZeroFraction of a freshly booted guest's pages remain zero.
	ZeroFraction float64
	// VCPUNoise is the relative stddev applied per guest-vCPU Exec
	// batch, modelling run-to-run measurement variance.
	VCPUNoise float64
}

// Backend names a Profile: one registered hypervisor substrate.
type Backend struct {
	// Name is the registry key ("kvm-i7-4790", ...).
	Name string
	// Description is a one-line calibration note for listings.
	Description string
	// Profile is the backend's calibrated cost model.
	Profile Profile
}

// DefaultName is the backend every constructor uses when none is named:
// the paper's testbed.
const DefaultName = "kvm-i7-4790"

// Baseline returns the default backend — QEMU/KVM on the paper's Intel
// i7-4790 testbed. Its constants are exactly the paper calibration
// (cpu.DefaultModel, ksm.DefaultCostModel, a 15 s boot): artefacts
// produced under this backend are byte-identical to the pre-backend-layer
// tree, which the experiment goldens pin.
func Baseline() Backend {
	return Backend{
		Name:        DefaultName,
		Description: "QEMU 2.9/KVM on Intel i7-4790 — the paper's testbed calibration",
		Profile: Profile{
			CPU:          cpu.DefaultModel(),
			KSM:          ksm.DefaultCostModel(),
			BootTime:     15 * time.Second,
			ZeroFraction: 0.35,
			VCPUNoise:    0.01,
		},
	}
}
