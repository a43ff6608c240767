// Package cloudskulk is a full reproduction of "CloudSkulk: A Nested
// Virtual Machine Based Rootkit and Its Detection" (DSN 2021) as a
// deterministic simulation library.
//
// The package re-exports the project's building blocks behind one import:
//
//   - a simulated QEMU/KVM cloud host (nested virtualization, live
//     migration, KSM memory deduplication, QEMU monitor protocol);
//   - the CloudSkulk rootkit: recon, the four-step nested-VM install, and
//     its passive/active malicious services;
//   - the paper's defence (memory-deduplication write-timing detection)
//     plus the VMCS-scan and VMI-fingerprint baselines it discusses;
//   - an experiment harness reproducing every table and figure of the
//     paper's evaluation.
//
// Quick start:
//
//	cloud, err := cloudskulk.New(1)                 // seeded testbed, 1 GiB victim
//	rk, err := cloud.InstallRootkit(cloudskulk.InstallConfig{})
//	cloud.Host.KSM().Start()
//	det := cloudskulk.NewDedupDetector(cloud.Host)
//	agent := cloudskulk.NewGuestAgent(rk.Victim)
//	agent.OnLoad = rk.InterceptFilePushes()         // the impersonation
//	verdict, evidence, err := det.Run(agent)        // => VerdictNested
//
// Everything runs on a virtual clock: results are exactly reproducible
// for a given seed, regardless of the machine executing the simulation.
package cloudskulk

import (
	"cloudskulk/internal/controlplane"
	"cloudskulk/internal/core"
	"cloudskulk/internal/detect"
	"cloudskulk/internal/experiments"
	"cloudskulk/internal/fleet"
	"cloudskulk/internal/hv"
	"cloudskulk/internal/kvm"
	"cloudskulk/internal/mem"
	"cloudskulk/internal/qemu"
	"cloudskulk/internal/telemetry"
	"cloudskulk/internal/vnet"
)

// Testbed building blocks.
type (
	// Cloud is one simulated physical machine with a running victim VM
	// and a live-migration engine — the paper's testbed.
	Cloud = experiments.Cloud
	// Host is the physical machine: OS, network endpoint, KSM daemon,
	// and the L0 hypervisor.
	Host = kvm.Host
	// VM is one QEMU guest.
	VM = qemu.VM
	// FwdRule is one host-port-to-guest-port forwarding rule.
	FwdRule = qemu.FwdRule
)

// The attack.
type (
	// InstallConfig parameterizes the CloudSkulk installation; the zero
	// value is the paper's install (GuestX, impersonating).
	InstallConfig = core.InstallConfig
	// Sniffer is the passive traffic-capture service.
	Sniffer = core.Sniffer
	// ActiveFilter is the active drop/tamper service.
	ActiveFilter = core.ActiveFilter
	// FilterRule matches packets for the active service.
	FilterRule = core.FilterRule
)

// Active-service actions.
const (
	ActionDrop    = core.ActionDrop
	ActionReplace = core.ActionReplace
)

// The defence.
type (
	// DedupDetector runs the paper's memory-deduplication timing
	// protocol from L0.
	DedupDetector = detect.DedupDetector
	// GuestAgent is the in-guest side of the protocol.
	GuestAgent = detect.GuestAgent
	// Verdict is the detector's conclusion.
	Verdict = detect.Verdict
	// Evidence carries the t0/t1/t2 timing probes.
	Evidence = detect.Evidence
)

// Detection verdicts.
const (
	VerdictClean  = detect.VerdictClean
	VerdictNested = detect.VerdictNested
)

// Experiments: the paper's evaluation.
type (
	// ExperimentOptions scales the experiment harness.
	ExperimentOptions = experiments.Options
)

// Workloads and files.
type (
	// File is an in-memory file image (the detection probe file).
	File = mem.File
	// Packet is one unit of simulated network traffic.
	Packet = vnet.Packet
	// Addr is an (endpoint, port) network address.
	Addr = vnet.Addr
)

// Testbed options for New.
type (
	// CloudOption configures the testbed New builds.
	CloudOption = experiments.CloudOption
)

// Testbed option constructors.
var (
	// WithGuestMemMB sets the victim VM's memory size in MiB (default
	// 1024, the paper's 1 GiB guest).
	WithGuestMemMB = experiments.WithGuestMemMB
	// WithKSMStarted starts the host's KSM daemon during construction
	// instead of leaving it stopped.
	WithKSMStarted = experiments.WithKSMStarted
	// WithWorkloadProfile attaches a background guest-activity generator
	// to the victim (exposed as Cloud.Background).
	WithWorkloadProfile = experiments.WithWorkloadProfile
)

// Backend is a registered hypervisor cost profile: a named calibration of
// the simulated substrate. Every experiment and detector runs unchanged on
// any backend; only the constants (exit costs, multipliers, KSM timing,
// boot time) move.
type Backend = hv.Backend

// DefaultBackend names the paper's testbed calibration (Intel i7-4790
// under KVM), the profile every golden artefact is pinned against.
const DefaultBackend = hv.DefaultName

// Backends lists the registered backend names, sorted.
func Backends() []string { return hv.Names() }

// LookupBackend resolves a backend name ("" selects DefaultBackend);
// an unregistered name returns an error listing the registered ones.
func LookupBackend(name string) (Backend, error) { return hv.Lookup(name) }

// TelemetryRegistry collects sim-time counters, gauges, and histograms
// from every instrumented layer; exports are deterministic per seed.
type TelemetryRegistry = telemetry.Registry

// NewTelemetryRegistry builds an empty metrics registry; set it as
// ExperimentOptions.Telemetry to collect a whole evaluation's metrics.
func NewTelemetryRegistry() *TelemetryRegistry { return telemetry.NewRegistry() }

// The fleet: many hosts on one fabric.
type (
	// Fleet is a set of simulated hosts sharing one virtual-time engine
	// and one network fabric, with cross-host live migration, placement,
	// and fleet-wide detection sweeps.
	Fleet = fleet.Fleet
	// FleetOption configures NewFleet.
	FleetOption = fleet.Option
	// HostSpec describes one fleet host (name, memory, trust tag).
	HostSpec = fleet.HostSpec
	// LinkSpec is a fabric link's bandwidth/latency/down state.
	LinkSpec = vnet.LinkSpec
)

// Fleet option constructors.
var (
	// WithHostSpecs builds exactly the given hosts.
	WithHostSpecs = fleet.WithHostSpecs
	// WithRetry sets the migration retry budget and initial backoff.
	WithRetry = fleet.WithRetry
)

// The control plane: the tenant-facing management API over a fleet.
type (
	// ControlPlane is the deterministic IaaS management layer: typed
	// tenant requests, per-tenant quotas, and an async job queue on the
	// shared sim engine.
	ControlPlane = controlplane.Plane
	// ControlPlaneConfig tunes the queue machinery (bound, slots,
	// dispatch latency, retry policy).
	ControlPlaneConfig = controlplane.Config
)

// NewControlPlane builds a management plane over a fleet; the plane
// shares the fleet's engine, telemetry registry, and span tracer.
func NewControlPlane(f *Fleet, cfg ControlPlaneConfig) *ControlPlane {
	return controlplane.New(f, cfg)
}

// NewFleet builds a seeded multi-host fleet: N hosts on a shared fabric
// with per-pair links, a common live-migration engine, and a deterministic
// placement scheduler. The zero-option call builds four hosts (one
// trusted) on 1 Gbit-class links.
func NewFleet(seed int64, opts ...FleetOption) (*Fleet, error) {
	return fleet.New(seed, opts...)
}

// New builds a seeded testbed: one host with a running victim VM
// ("guest0", SSH forwarded on host port 2222, QEMU monitor on 5555), a
// live-migration engine, and a KSM daemon (created stopped unless
// WithKSMStarted). The zero-option call reproduces the paper's testbed
// with a 1 GiB victim.
func New(seed int64, opts ...CloudOption) (*Cloud, error) {
	return experiments.NewCloud(seed, opts...)
}

// NewDedupDetector returns the paper's detector with its default
// parameters (100-page probe, 15 s merge window).
func NewDedupDetector(host *Host) *DedupDetector {
	return detect.NewDedupDetector(host)
}

// NewGuestAgent returns the in-guest agent, which loads the probe file
// at its fixed page, clear of the guest's kernel image.
func NewGuestAgent(vm *VM) *GuestAgent {
	return detect.NewGuestAgent(vm)
}

// NewSniffer returns an empty passive-capture tap.
func NewSniffer() *Sniffer { return core.NewSniffer() }

// NewActiveFilter returns an active drop/tamper tap with the given rules.
func NewActiveFilter(rules ...FilterRule) *ActiveFilter {
	return core.NewActiveFilter(rules...)
}

// DefaultExperimentOptions reproduces the paper's evaluation scale
// (1 GiB guests, 5 runs per cell).
func DefaultExperimentOptions() ExperimentOptions {
	return experiments.DefaultOptions()
}

// QuickExperimentOptions returns a scaled-down configuration suitable for
// fast smoke runs.
func QuickExperimentOptions() ExperimentOptions {
	return experiments.TestOptions()
}

// GenerateFile builds an in-memory file image of n pages with globally
// unique contents, drawing its nonce from the cloud's seeded randomness —
// the probe files and guest documents of the examples and experiments.
func GenerateFile(cloud *Cloud, name string, pages int) *File {
	return mem.GenerateFile(cloud.Eng.RNG(), name, pages)
}
