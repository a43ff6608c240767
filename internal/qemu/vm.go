package qemu

import (
	"fmt"
	"time"

	"cloudskulk/internal/cpu"
	"cloudskulk/internal/mem"
	"cloudskulk/internal/sim"
	"cloudskulk/internal/telemetry"
)

// State is a VM lifecycle state.
type State int

// VM lifecycle states.
const (
	// StateCreated: process exists, guest not started.
	StateCreated State = iota + 1
	// StateRunning: guest executing.
	StateRunning
	// StatePaused: guest stopped (monitor `stop`).
	StatePaused
	// StateIncoming: paused, listening for live-migration data
	// (launched with -incoming).
	StateIncoming
	// StateShutOff: terminated.
	StateShutOff
)

// String names the state the way `info status` does.
func (s State) String() string {
	switch s {
	case StateCreated:
		return "created"
	case StateRunning:
		return "running"
	case StatePaused:
		return "paused"
	case StateIncoming:
		return "paused (inmigrate)"
	case StateShutOff:
		return "shut off"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// BlockStats carries per-drive I/O counters, the `info blockstats` view.
type BlockStats struct {
	RdBytes uint64
	WrBytes uint64
	RdOps   uint64
	WrOps   uint64
}

// MigrationInfo is the `info migrate` view, updated by the migration
// engine while a migration involving this VM runs.
type MigrationInfo struct {
	Status        string // "", "active", "completed", "failed", "cancelled"
	TransferredMB float64
	RemainingMB   float64
	TotalMB       float64
	Downtime      time.Duration
	TotalTime     time.Duration
	Iterations    int
}

// Migrator starts a live migration of vm toward uri. The QEMU monitor's
// `migrate` command delegates here; the implementation lives in the
// migrate package and is injected to keep this package free of a cycle.
type Migrator interface {
	Migrate(vm *VM, uri string) error
}

// PortForwarder installs user-mode-networking host forwards at runtime —
// the monitor's `hostfwd_add` command. The hypervisor layer injects an
// implementation wired to the virtual network.
type PortForwarder interface {
	AddHostFwd(vm *VM, rule FwdRule) error
	RemoveHostFwd(vm *VM, rule FwdRule) error
}

// VM is one QEMU process's guest. What most guests never use — block I/O
// counters, the `info migrate` view, the monitor — is allocated on first
// use, and the engine and level are the vCPU's: a fleet creates one VM per
// guest, so every field here is paid 100k times at megastorm scale.
type VM struct {
	cfg      Config
	state    State
	ram      *mem.Space
	vcpu     *cpu.VCPU
	endpoint string
	pid      int

	blocks    []BlockStats // per drive, nil until the first RecordBlockIO
	migInfo   *MigrationInfo
	migrator  Migrator
	portFwd   PortForwarder
	monitor   *Monitor
	snapshots map[string]*Snapshot
	tele      *telemetry.Registry
}

// NewVM builds a VM in StateCreated. The endpoint names this VM's NIC on
// the virtual network; level is the virtualization level the guest's code
// executes at (L1 for a VM on the bare-metal host, L2 nested).
func NewVM(eng *sim.Engine, cfg Config, model cpu.Model, level cpu.Level, endpoint string) *VM {
	var ram *mem.Space
	if cfg.MemTemplate != nil {
		// Golden-image boot: fork the template copy-on-write instead of
		// allocating pages — O(1) regardless of guest memory size. The
		// cold-path NewSpace must not run even transiently: its page
		// array alone is 256 KiB at a 128 MB image, which at 100k
		// template guests is ~25 GB of allocator churn.
		ram = mem.SpawnFrom(cfg.Name+".ram", cfg.MemTemplate)
	} else {
		ram = mem.NewSpace(cfg.Name+".ram", cfg.MemoryMB<<20)
	}
	return &VM{
		cfg:      cfg.Clone(),
		state:    StateCreated,
		ram:      ram,
		vcpu:     cpu.NewVCPU(eng, model, level),
		endpoint: endpoint,
	}
}

// Name returns the VM's configured name.
func (v *VM) Name() string { return v.cfg.Name }

// Config returns a copy of the VM's configuration.
func (v *VM) Config() Config { return v.cfg.Clone() }

// State returns the lifecycle state.
func (v *VM) State() State { return v.state }

// RAM exposes the guest-physical memory.
func (v *VM) RAM() *mem.Space { return v.ram }

// VCPU returns the guest's virtual CPU.
func (v *VM) VCPU() *cpu.VCPU { return v.vcpu }

// Level returns the virtualization level guest code runs at.
func (v *VM) Level() cpu.Level { return v.vcpu.Level() }

// Endpoint returns the VM's network endpoint name.
func (v *VM) Endpoint() string { return v.endpoint }

// Engine returns the simulation engine.
func (v *VM) Engine() *sim.Engine { return v.vcpu.Engine() }

// PID returns the host process id backing this VM (0 until assigned).
func (v *VM) PID() int { return v.pid }

// SetPID records the host process id backing this VM.
func (v *VM) SetPID(pid int) { v.pid = pid }

// Boot transitions Created -> Running (or -> Incoming when the config has
// -incoming), advancing virtual time by bootTime and populating guest RAM
// with plausible contents: zeroFrac of pages free (zero), the rest unique.
// An incoming VM skips RAM population — its memory arrives via migration.
// A golden-image boot (MemTemplate fork) charges no boot time: it models
// `-loadvm` from an already-warm shared snapshot, an instant restore — and
// that instantaneity is load-bearing for the sharded world, where a boot
// inside an event handler must never advance the clock past the shard's
// granted synchronization window.
func (v *VM) Boot(bootTime time.Duration, rng *sim.Rand, zeroFrac float64) error {
	if v.state != StateCreated {
		return fmt.Errorf("%w: boot from %v", ErrBadState, v.state)
	}
	if v.cfg.MemTemplate != nil && v.ram.Forked() {
		// Golden-image boot: RAM already is the template contents, shared
		// copy-on-write with every sibling guest. No boot-time advance, no
		// page population, and — deliberately — no RNG draw, so template
		// boots leave the engine's clock and random stream exactly where
		// they were. After a Reset the fork is gone and the normal cold
		// path below runs.
		v.state = StateRunning
		return nil
	}
	v.Engine().Advance(bootTime)
	if v.cfg.Incoming != "" {
		v.state = StateIncoming
		return nil
	}
	v.ram.FillRandom(rng, zeroFrac)
	v.state = StateRunning
	return nil
}

// Pause stops guest execution (monitor `stop`).
func (v *VM) Pause() error {
	if v.state != StateRunning {
		return fmt.Errorf("%w: stop from %v", ErrBadState, v.state)
	}
	v.state = StatePaused
	return nil
}

// Resume restarts a paused or incoming-complete guest (monitor `cont`).
func (v *VM) Resume() error {
	if v.state != StatePaused && v.state != StateIncoming {
		return fmt.Errorf("%w: cont from %v", ErrBadState, v.state)
	}
	v.state = StateRunning
	return nil
}

// Reset returns a running or paused guest to the pre-boot state — the
// guest OS rebooting (or the admin hitting system_reset). RAM is cleared:
// a fresh boot repopulates it. The QEMU process itself survives, which is
// exactly why a rootkit *around* the guest survives the guest's reboot.
func (v *VM) Reset() error {
	if v.state != StateRunning && v.state != StatePaused {
		return fmt.Errorf("%w: reset from %v", ErrBadState, v.state)
	}
	v.ram.Reset()
	v.state = StateCreated
	return nil
}

// Shutdown terminates the guest. Terminating an already shut-off VM is an
// error so tests catch double-kill bugs.
func (v *VM) Shutdown() error {
	if v.state == StateShutOff {
		return fmt.Errorf("%w: quit from %v", ErrBadState, v.state)
	}
	v.state = StateShutOff
	return nil
}

// Running reports whether the guest is executing.
func (v *VM) Running() bool { return v.state == StateRunning }

// RecordBlockIO accumulates device I/O counters for `info blockstats`.
// Unknown drive indices are ignored (defensive: workloads probe drive 0).
func (v *VM) RecordBlockIO(drive int, rdBytes, wrBytes, rdOps, wrOps uint64) {
	if drive < 0 || drive >= len(v.cfg.Drives) {
		return
	}
	if v.blocks == nil {
		v.blocks = make([]BlockStats, len(v.cfg.Drives))
	}
	b := &v.blocks[drive]
	b.RdBytes += rdBytes
	b.WrBytes += wrBytes
	b.RdOps += rdOps
	b.WrOps += wrOps
}

// BlockStatsFor returns drive i's counters.
func (v *VM) BlockStatsFor(i int) (BlockStats, bool) {
	if i < 0 || i >= len(v.cfg.Drives) {
		return BlockStats{}, false
	}
	if v.blocks == nil {
		return BlockStats{}, true
	}
	return v.blocks[i], true
}

// SetTelemetry attaches the metrics registry the monitor's info stats
// serves from. The hypervisor wires this at CreateVM time.
func (v *VM) SetTelemetry(reg *telemetry.Registry) { v.tele = reg }

// Telemetry returns the VM's registry (nil when unset).
func (v *VM) Telemetry() *telemetry.Registry { return v.tele }

// SetMigrator injects the live-migration engine used by the monitor's
// `migrate` command.
func (v *VM) SetMigrator(m Migrator) { v.migrator = m }

// SetPortForwarder injects the runtime hostfwd implementation used by the
// monitor's `hostfwd_add` / `hostfwd_remove` commands.
func (v *VM) SetPortForwarder(pf PortForwarder) { v.portFwd = pf }

// AddHostFwd installs a runtime host forward for this VM. It also records
// the rule in the VM's config so recon and `info network` see it.
func (v *VM) AddHostFwd(rule FwdRule) error {
	if v.portFwd == nil {
		return fmt.Errorf("%w: no port forwarder attached", ErrBadState)
	}
	if err := v.portFwd.AddHostFwd(v, rule); err != nil {
		return err
	}
	if len(v.cfg.NetDevs) > 0 {
		v.cfg.NetDevs[0].HostFwds = append(v.cfg.NetDevs[0].HostFwds, rule)
	}
	return nil
}

// RemoveHostFwd removes a runtime host forward for this VM.
func (v *VM) RemoveHostFwd(rule FwdRule) error {
	if v.portFwd == nil {
		return fmt.Errorf("%w: no port forwarder attached", ErrBadState)
	}
	if err := v.portFwd.RemoveHostFwd(v, rule); err != nil {
		return err
	}
	if len(v.cfg.NetDevs) > 0 {
		fwds := v.cfg.NetDevs[0].HostFwds
		for i, f := range fwds {
			if f == rule {
				v.cfg.NetDevs[0].HostFwds = append(fwds[:i], fwds[i+1:]...)
				break
			}
		}
	}
	return nil
}

// SetMigrationInfo updates the `info migrate` view.
func (v *VM) SetMigrationInfo(info MigrationInfo) {
	if v.migInfo == nil {
		v.migInfo = new(MigrationInfo)
	}
	*v.migInfo = info
}

// MigrationStatus returns the current `info migrate` view.
func (v *VM) MigrationStatus() MigrationInfo {
	if v.migInfo == nil {
		return MigrationInfo{}
	}
	return *v.migInfo
}

// Monitor returns the VM's QEMU monitor, creating it on first use.
func (v *VM) Monitor() *Monitor {
	if v.monitor == nil {
		v.monitor = newMonitor(v)
	}
	return v.monitor
}

// FinishIncoming transitions an incoming VM to paused-after-migration;
// the migration engine calls it at stream end, and `cont` (or the engine's
// auto-resume) then starts the guest.
func (v *VM) FinishIncoming() error {
	if v.state != StateIncoming {
		return fmt.Errorf("%w: finish incoming from %v", ErrBadState, v.state)
	}
	v.state = StatePaused
	// -incoming applied to this one launch; a later in-process reboot
	// boots normally.
	v.cfg.Incoming = ""
	return nil
}
