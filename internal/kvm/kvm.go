// Package kvm models the hypervisor layer: a physical Host running a
// bare-metal (L0) hypervisor, VM creation/launch/kill wired into the host
// OS process table, the virtual network and the KSM daemon, plus nested
// virtualization — turning a running guest into an L1 hypervisor that
// hosts L2 VMs, exactly the capability CloudSkulk abuses.
package kvm

import (
	"errors"
	"fmt"
	"net"
	"sort"
	"strings"
	"time"

	"cloudskulk/internal/cpu"
	"cloudskulk/internal/hostos"
	"cloudskulk/internal/hv"
	"cloudskulk/internal/ksm"
	"cloudskulk/internal/mem"
	"cloudskulk/internal/qemu"
	"cloudskulk/internal/sim"
	"cloudskulk/internal/telemetry"
	"cloudskulk/internal/vnet"
)

// Errors callers match on.
var (
	ErrVMExists      = errors.New("kvm: vm already exists")
	ErrNoSuchVM      = errors.New("kvm: no such vm")
	ErrNotRunning    = errors.New("kvm: vm not running")
	ErrNoKVM         = errors.New("kvm: guest launched without -enable-kvm")
	ErrNestingDepth  = errors.New("kvm: nesting beyond L3 not supported")
	ErrNoMonitorPort = errors.New("kvm: no vm exposes that monitor port")
)

// MigrationService is what a live-migration engine must provide for the
// hypervisor to wire VMs up: the monitor's `migrate` dispatch plus a
// registry of `-incoming` listeners.
type MigrationService interface {
	qemu.Migrator
	// RegisterVM tells the engine which network endpoint hosts the VM's
	// QEMU process — the vantage point outbound migration connections
	// originate from (the physical host for L1 guests, the enclosing
	// VM's NIC for nested guests).
	RegisterVM(vm *qemu.VM, hostEndpoint string)
	// RegisterIncoming announces that vm listens for migration data at
	// addr on the virtual network.
	RegisterIncoming(vm *qemu.VM, addr vnet.Addr) error
	// UnregisterIncoming removes a listener (VM killed before any
	// migration arrived).
	UnregisterIncoming(addr vnet.Addr)
}

// Host is one physical machine: OS, network presence, KSM daemon, and the
// L0 hypervisor.
type Host struct {
	name string
	eng  *sim.Engine
	net  *vnet.Network
	os   *hostos.System
	ksmd *ksm.Daemon
	hv   *Hypervisor

	// BootTime is charged per VM launch (BIOS + kernel + userspace).
	BootTime time.Duration
	// ZeroFraction of a freshly booted guest's pages remain zero.
	ZeroFraction float64
	// Model is the CPU cost model all vCPUs on this machine share.
	Model cpu.Model

	backend   hv.Backend
	migration MigrationService
	tel       *telemetry.Registry
	names     *Names

	// vcpuTel caches the vCPU counter handles per guest level, resolved on
	// tel for vcpuModel; SetTelemetry and a change of Model drop them.
	vcpuTel   [cpu.L3 + 1]*cpu.Telemetry
	vcpuModel cpu.Model
}

// Names counts L0 guest names across every host sharing it — one fleet's
// machines — so a fleet-wide duplicate-name check is one lookup instead of
// one per host. A host updates it only when an L0 CreateVM or Kill
// succeeds; nested guests live in their enclosing VM's namespace and are
// not counted.
type Names struct{ n map[string]int }

// NewNames returns an empty index.
func NewNames() *Names { return &Names{n: make(map[string]int)} }

// Has reports whether a host sharing the index runs an L0 guest called
// name. A nil index has no names.
func (ix *Names) Has(name string) bool { return ix != nil && ix.n[name] > 0 }

func (ix *Names) add(name string) {
	if ix != nil {
		ix.n[name]++
	}
}

func (ix *Names) remove(name string) {
	if ix == nil {
		return
	}
	if ix.n[name] > 1 {
		ix.n[name]--
	} else {
		delete(ix.n, name)
	}
}

// Check recounts the L0 guests of hosts, which must be every host sharing
// the index, and returns an error naming a name whose count disagrees, or
// nil.
//
//detlint:allow deadcode — invariant checker: the kvm create tests and fleet's placement test run it; ROADMAP item 5's fleet checker will
func (ix *Names) Check(hosts []*Host) error {
	diff := make(map[string]int, len(ix.n))
	for name, n := range ix.n {
		diff[name] = n
	}
	for _, h := range hosts {
		for name := range h.hv.vms {
			diff[name]--
		}
	}
	for name, d := range diff {
		if d != 0 {
			return fmt.Errorf("kvm: name index counts %q %d times too many", name, d)
		}
	}
	return nil
}

// NewHost builds a physical machine with the given name on the default
// backend (the paper's kvm-i7-4790 calibration), registering its network
// endpoint. The KSM daemon is created but not started; call
// Host.KSM().Start() to enable deduplication scanning.
//
//detlint:allow deadcode — test fixture: the package tests build their one-host clouds with it; mains pick a backend
func NewHost(eng *sim.Engine, network *vnet.Network, name string) (*Host, error) {
	return NewHostWithBackend(eng, network, name, hv.Baseline())
}

// NewHostWithBackend builds a physical machine running the given
// hypervisor backend: the backend's cost profile calibrates the host's
// CPU model, KSM write timing, boot time, boot-page zero fraction, and
// guest-vCPU measurement noise.
func NewHostWithBackend(eng *sim.Engine, network *vnet.Network, name string, backend hv.Backend) (*Host, error) {
	if err := network.AddEndpoint(name); err != nil {
		return nil, fmt.Errorf("kvm: new host: %w", err)
	}
	prof := backend.Profile
	h := &Host{
		name:         name,
		eng:          eng,
		net:          network,
		os:           hostos.New(eng),
		ksmd:         ksm.New(eng, prof.KSM),
		BootTime:     prof.BootTime,
		ZeroFraction: prof.ZeroFraction,
		Model:        prof.CPU,
		backend:      backend,
	}
	h.hv = &Hypervisor{
		host:     h,
		os:       h.os,
		runLevel: cpu.L0,
		vms:      make(map[string]*qemu.VM),
		nested:   make(map[string]*Hypervisor),
		fwds:     make(map[string][]vnet.Addr),
	}
	return h, nil
}

// Name returns the host's name (also its network endpoint).
func (h *Host) Name() string { return h.name }

// Engine returns the simulation engine.
func (h *Host) Engine() *sim.Engine { return h.eng }

// Network returns the virtual network fabric.
func (h *Host) Network() *vnet.Network { return h.net }

// OS returns the host operating system view.
func (h *Host) OS() *hostos.System { return h.os }

// KSM returns the host's samepage-merging daemon.
func (h *Host) KSM() *ksm.Daemon { return h.ksmd }

// Hypervisor returns the bare-metal (L0) hypervisor.
func (h *Host) Hypervisor() *Hypervisor { return h.hv }

// Backend returns the hypervisor backend this machine runs.
func (h *Host) Backend() hv.Backend { return h.backend }

// SetMigrationService wires a live-migration engine into the host; VMs
// created afterwards get it as their monitor `migrate` backend.
func (h *Host) SetMigrationService(m MigrationService) { h.migration = m }

// SetTelemetry attaches a metrics registry to the host: the KSM daemon
// reports scan progress, every VM created afterwards carries the
// registry (its monitor serves info stats, its vCPU counts exits), and
// the model's exit-reflection multiplier is published as a gauge. The
// gauge is world-constant per model, so sharing one registry across
// hosts or sweep cells stays deterministic.
func (h *Host) SetTelemetry(reg *telemetry.Registry) {
	h.tel = reg
	h.vcpuTel = [cpu.L3 + 1]*cpu.Telemetry{}
	h.ksmd.SetTelemetry(reg)
	if reg != nil {
		reg.Gauge("kvm_exit_multiplier").Set(int64(h.Model.ExitMultiplier))
	}
}

// vcpuTelemetry returns the counter handles every vCPU of a guest at level
// shares, resolving them on first use for the host's current Model.
func (h *Host) vcpuTelemetry(level cpu.Level) *cpu.Telemetry {
	if h.vcpuModel != h.Model {
		h.vcpuTel, h.vcpuModel = [cpu.L3 + 1]*cpu.Telemetry{}, h.Model
	}
	if h.vcpuTel[level] == nil {
		h.vcpuTel[level] = cpu.NewTelemetry(h.tel, h.Model, level)
	}
	return h.vcpuTel[level]
}

// ShareNames makes the host count its L0 guests in ix, the index its
// fleet's hosts share. Call it before the host creates any guest.
func (h *Host) ShareNames(ix *Names) { h.names = ix }

// OpenMonitor connects to the QEMU monitor a VM exposes on the given host
// telnet port, searching all virtualization levels — the attacker's
// `telnet 127.0.0.1 5555`. The returned conn speaks the HMP protocol.
func (h *Host) OpenMonitor(port int) (net.Conn, error) {
	vm := h.hv.findByPort(port)
	if vm == nil {
		return nil, fmt.Errorf("%w: %d", ErrNoMonitorPort, port)
	}
	client, server := net.Pipe()
	//detlint:allow goroutine — monitor connection plumbing: Serve blocks on the interactive client's pipe; command dispatch itself stays synchronous per line
	go func() { _ = vm.Monitor().Serve(server) }()
	return client, nil
}

// Serving follows the forward chain from the host's port to the VM that
// answers there, at any level, and returns it with the L0 VM the chain
// enters: the same VM for a plain guest, the interposed VM (a RITM) when
// the chain passes through one. This is how an operator maps "the machine
// answering on this port" back to VMs. A chain that ends at no VM fails
// with ErrNoSuchVM.
func (h *Host) Serving(port int) (vm, l0 *qemu.VM, err error) {
	// The usual chain is one hop, two through an interposed VM: resolve
	// into a stack buffer.
	var buf [4]string
	final, hops, err := h.net.ResolveForwardAppend(buf[:0], vnet.Addr{Endpoint: h.name, Port: port})
	if err != nil {
		return nil, nil, err
	}
	vm, ok := h.hv.FindByEndpoint(final.Endpoint)
	if !ok {
		return nil, nil, fmt.Errorf("%w behind %s", ErrNoSuchVM, final)
	}
	l0 = vm
	// hops[0] is the host itself; a second hop is the VM the host's
	// forward points into.
	if len(hops) > 1 {
		if entry, ok := h.hv.FindByEndpoint(hops[1]); ok {
			l0 = entry
		}
	}
	return vm, l0, nil
}

// Hypervisor hosts VMs at one virtualization level. The L0 instance lives
// on a Host; nested instances live inside a running guest.
type Hypervisor struct {
	host     *Host
	insideVM *qemu.VM // nil at L0
	// scope prefixes this hypervisor's guest endpoints: "" at L0, the
	// enclosing VM's name and "/" when nested.
	scope    string
	os       *hostos.System
	runLevel cpu.Level
	vms      map[string]*qemu.VM

	// SoftwareMMU runs this hypervisor without VT-x (qemu tcg): slower,
	// but it keeps no VMCS structures in memory, which blinds
	// memory-forensic VMCS scanners. CloudSkulk's evasion knob.
	SoftwareMMU bool
	// nested maps guest name -> the hypervisor running inside it.
	nested map[string]*Hypervisor
	// fwds tracks the vnet forward sources installed per VM so Kill can
	// remove them.
	fwds map[string][]vnet.Addr
}

var _ qemu.PortForwarder = (*Hypervisor)(nil)

// GuestLevel returns the level guests of this hypervisor execute at.
func (hv *Hypervisor) GuestLevel() cpu.Level { return hv.runLevel + 1 }

// hostEndpoint is the network endpoint host forwards bind to: the physical
// host at L0, the enclosing VM's NIC when nested.
func (hv *Hypervisor) hostEndpoint() string {
	if hv.insideVM != nil {
		return hv.insideVM.Endpoint()
	}
	return hv.host.name
}

// CreateVM defines a VM from cfg: allocates its RAM, registers its network
// endpoint, installs its configured host forwards, spawns its backing
// process in this hypervisor's OS, registers its RAM with the physical
// host's KSM daemon (all guest RAM — nested included — physically lives in
// some L0 process), and records the command in shell history. The VM is
// returned in StateCreated; call Launch to boot it.
//
// A failed CreateVM leaves no trace: the -incoming URI and the host
// forwards are checked before anything is touched, and a step that fails
// after that undoes the steps before it, in reverse order.
func (hv *Hypervisor) CreateVM(cfg qemu.Config) (*qemu.VM, error) {
	if _, exists := hv.vms[cfg.Name]; exists {
		return nil, fmt.Errorf("%w: %q", ErrVMExists, cfg.Name)
	}
	if cfg.MemTemplate != nil && cfg.MemTemplate.SizeBytes() != cfg.MemoryMB<<20 {
		return nil, fmt.Errorf("kvm: create vm %q: template %q holds %d MB, config wants %d MB",
			cfg.Name, cfg.MemTemplate.Name(), cfg.MemTemplate.SizeBytes()>>20, cfg.MemoryMB)
	}
	// The QEMU process binds its -incoming port on whatever machine it
	// runs on: the physical host for L1 guests, the enclosing VM for
	// nested guests ("ROOTKIT PORT BBBB" in the paper).
	incoming := hv.host.migration != nil && cfg.Incoming != ""
	var inAddr vnet.Addr
	if incoming {
		port, err := qemu.ParseIncomingPort(cfg.Incoming)
		if err != nil {
			return nil, err
		}
		inAddr = vnet.Addr{Endpoint: hv.hostEndpoint(), Port: port}
	}
	for _, nd := range cfg.NetDevs {
		for _, rule := range nd.HostFwds {
			if err := hv.fwdFree(rule.HostPort); err != nil {
				return nil, err
			}
		}
	}

	endpoint := hv.guestEndpoint(cfg.Name)
	if err := hv.host.net.AddEndpoint(endpoint); err != nil {
		return nil, fmt.Errorf("kvm: create vm %q: %w", cfg.Name, err)
	}
	// The NIC's traffic is physically carried by whatever machine runs the
	// QEMU process, so cross-host links govern cross-host guest traffic.
	if err := hv.host.net.Attach(endpoint, hv.hostEndpoint()); err != nil {
		hv.host.net.RemoveEndpoint(endpoint)
		return nil, fmt.Errorf("kvm: create vm %q: %w", cfg.Name, err)
	}
	vm := qemu.NewVM(hv.host.eng, cfg, hv.host.Model, hv.GuestLevel(), endpoint)
	vm.VCPU().Noise = hv.host.backend.Profile.VCPUNoise
	// Configured host forwards. Two rules for one host port collide here.
	for _, nd := range cfg.NetDevs {
		for _, rule := range nd.HostFwds {
			if err := hv.installFwd(vm, rule); err != nil {
				hv.undoCreate(vm)
				return nil, err
			}
		}
	}
	if incoming {
		if err := hv.host.migration.RegisterIncoming(vm, inAddr); err != nil {
			hv.undoCreate(vm)
			return nil, err
		}
		if err := hv.host.net.Listen(inAddr, func(*vnet.Packet) {}); err != nil {
			hv.host.migration.UnregisterIncoming(inAddr)
			hv.undoCreate(vm)
			return nil, fmt.Errorf("kvm: incoming listener: %w", err)
		}
	}

	// Nothing below fails.
	if hv.host.tel != nil {
		vm.SetTelemetry(hv.host.tel)
		vm.VCPU().UseTelemetry(hv.host.vcpuTelemetry(hv.GuestLevel()))
		hv.host.tel.Counter("kvm_vms_created_total").Inc()
	}
	// Backing process in the hosting OS, visible to `ps -ef`, and the
	// same line in shell history.
	line := cfg.CommandLine()
	vm.SetPID(hv.os.Spawn("root", line).PID)
	hv.os.AppendHistory(line)
	// Physical residence: register with the L0 host's KSM scanner.
	hv.host.ksmd.Register(vm.RAM())
	if hv.host.migration != nil {
		vm.SetMigrator(hv.host.migration)
		hv.host.migration.RegisterVM(vm, hv.hostEndpoint())
	}
	vm.SetPortForwarder(hv)

	hv.vms[cfg.Name] = vm
	if hv.insideVM == nil {
		hv.host.names.add(cfg.Name)
	}
	return vm, nil
}

// undoCreate tears down what a failing CreateVM set up for vm before its
// failure: the forwards it installed, then its endpoint.
func (hv *Hypervisor) undoCreate(vm *qemu.VM) {
	for _, from := range hv.fwds[vm.Name()] {
		hv.host.net.RemoveForward(from)
	}
	delete(hv.fwds, vm.Name())
	hv.host.net.RemoveEndpoint(vm.Endpoint())
}

// guestEndpoint names the NIC of this hypervisor's guest called name.
// Nested guests live in their host guest's network namespace, so their
// endpoints are scoped by it. This is also what lets the attacker give the
// nested VM the *same name* as the victim.
func (hv *Hypervisor) guestEndpoint(name string) string {
	return hv.scope + name + nicSuffix
}

// guestName inverts guestEndpoint: the name a guest of this hypervisor
// would need for its NIC to be endpoint, or false if no name would do.
func (hv *Hypervisor) guestName(endpoint string) (string, bool) {
	rest, ok := strings.CutPrefix(endpoint, hv.scope)
	if !ok {
		return "", false
	}
	return strings.CutSuffix(rest, nicSuffix)
}

const nicSuffix = ".nic"

// fwdFree fails if host port hostPort of this hypervisor's host endpoint
// is already forwarded.
func (hv *Hypervisor) fwdFree(hostPort int) error {
	from := vnet.Addr{Endpoint: hv.hostEndpoint(), Port: hostPort}
	if _, hops, err := hv.host.net.ResolveForward(from); err != nil || len(hops) > 0 {
		if err == nil {
			err = fmt.Errorf("kvm: host port %d already forwarded", hostPort)
		}
		return err
	}
	return nil
}

func (hv *Hypervisor) installFwd(vm *qemu.VM, rule qemu.FwdRule) error {
	if err := hv.fwdFree(rule.HostPort); err != nil {
		return err
	}
	from := vnet.Addr{Endpoint: hv.hostEndpoint(), Port: rule.HostPort}
	to := vnet.Addr{Endpoint: vm.Endpoint(), Port: rule.GuestPort}
	if err := hv.host.net.AddForward(from, to); err != nil {
		return err
	}
	hv.fwds[vm.Name()] = append(hv.fwds[vm.Name()], from)
	return nil
}

// AddHostFwd implements qemu.PortForwarder (the monitor's hostfwd_add).
func (hv *Hypervisor) AddHostFwd(vm *qemu.VM, rule qemu.FwdRule) error {
	return hv.installFwd(vm, rule)
}

// RemoveHostFwd implements qemu.PortForwarder.
func (hv *Hypervisor) RemoveHostFwd(vm *qemu.VM, rule qemu.FwdRule) error {
	from := vnet.Addr{Endpoint: hv.hostEndpoint(), Port: rule.HostPort}
	hv.host.net.RemoveForward(from)
	sources := hv.fwds[vm.Name()]
	for i, a := range sources {
		if a == from {
			hv.fwds[vm.Name()] = append(sources[:i], sources[i+1:]...)
			break
		}
	}
	return nil
}

// Launch boots a created VM, charging the host's boot time. When a nested
// hypervisor launches a guest with hardware assist, its VMCS becomes
// resident in the enclosing VM's RAM — the trace VMCS-scanning forensics
// look for.
func (hv *Hypervisor) Launch(name string) error {
	vm, ok := hv.vms[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoSuchVM, name)
	}
	if err := vm.Boot(hv.host.BootTime, hv.host.eng.RNG(), hv.host.ZeroFraction); err != nil {
		return err
	}
	if reg := hv.host.tel; reg != nil {
		reg.Counter(launchedKeys[hv.GuestLevel()]).Inc()
	}
	if hv.insideVM != nil && !hv.SoftwareMMU {
		rng := hv.host.eng.RNG()
		ram := hv.insideVM.RAM()
		page := rng.Intn(ram.NumPages())
		if _, err := ram.Write(page, mem.VMCSContent(rng.Uint32())); err != nil {
			return fmt.Errorf("kvm: place vmcs: %w", err)
		}
		// VMCS pages churn constantly; KSM skips them.
		if err := ram.MarkVolatile(page, true); err != nil {
			return fmt.Errorf("kvm: mark vmcs volatile: %w", err)
		}
	}
	return nil
}

// launchedKeys holds kvm_vms_launched_total{level} for every level a
// guest can run at (EnableNesting stops at L3), rendered once rather than
// on every launch.
var launchedKeys = func() (k [cpu.L3 + 1]string) {
	for l := range k {
		k[l] = telemetry.Key("kvm_vms_launched_total", "level", cpu.Level(l).String())
	}
	return k
}()

// Reboot resets and re-boots a running guest. The backing QEMU process,
// its network identity, forwards, and — crucially for CloudSkulk — any
// hypervisor *around* it are untouched: a rootkit hosting this guest
// survives the guest's reboot (the paper's §VII-A contrast with
// SubVirt/BluePill).
func (hv *Hypervisor) Reboot(name string) error {
	vm, ok := hv.vms[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoSuchVM, name)
	}
	if err := vm.Reset(); err != nil {
		return err
	}
	return hv.Launch(name)
}

// Kill terminates a VM and tears down everything CreateVM set up: process,
// endpoint, forwards, KSM registration, incoming listener. This is the
// "minor clean-up" step of the attack — and also how a migration source is
// destroyed afterwards.
func (hv *Hypervisor) Kill(name string) error {
	vm, ok := hv.vms[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoSuchVM, name)
	}
	if vm.State() != qemu.StateShutOff {
		if err := vm.Shutdown(); err != nil {
			return err
		}
	}
	// Killing a guest that hosts a nested hypervisor destroys the nested
	// guests with it — their RAM lived inside this process.
	if inner, ok := hv.nested[name]; ok {
		for _, nestedVM := range inner.VMs() {
			if err := inner.Kill(nestedVM.Name()); err != nil {
				return fmt.Errorf("kvm: kill nested %q: %w", nestedVM.Name(), err)
			}
		}
		delete(hv.nested, name)
	}
	for _, from := range hv.fwds[name] {
		hv.host.net.RemoveForward(from)
	}
	delete(hv.fwds, name)
	if cfg := vm.Config(); cfg.Incoming != "" && hv.host.migration != nil {
		if port, err := qemu.ParseIncomingPort(cfg.Incoming); err == nil {
			addr := vnet.Addr{Endpoint: hv.hostEndpoint(), Port: port}
			hv.host.migration.UnregisterIncoming(addr)
			hv.host.net.Unlisten(addr)
		}
	}
	hv.host.tel.Counter("kvm_vms_killed_total").Inc()
	hv.host.ksmd.Unregister(vm.RAM())
	hv.host.net.RemoveEndpoint(vm.Endpoint())
	if vm.PID() != 0 {
		// The process may already have been re-labelled via SwapPID;
		// tolerate a missing PID.
		_ = hv.os.Kill(vm.PID())
	}
	delete(hv.vms, name)
	if hv.insideVM == nil {
		hv.host.names.remove(name)
	}
	return nil
}

// VM looks a guest up by name.
func (hv *Hypervisor) VM(name string) (*qemu.VM, bool) {
	vm, ok := hv.vms[name]
	return vm, ok
}

// VMs returns all guests of this hypervisor, sorted by name so that
// callers iterating them (detection sweeps, remediation kills) touch
// guests in the same order every run.
func (hv *Hypervisor) VMs() []*qemu.VM {
	out := make([]*qemu.VM, 0, len(hv.vms))
	for _, vm := range hv.vms {
		out = append(out, vm)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name() < out[j].Name() })
	return out
}

// EnableNesting turns a running guest into a nested hypervisor host: the
// returned Hypervisor creates VMs that run at the next level. The guest
// must be running and have KVM enabled (nested virtualization requires the
// kvm module inside the guest). Guests up to L3 are supported — the paper
// (and Linux of that era, practically) stopped at L2; the extra level is
// the deeper-nesting attacker strategy, paying compounded exit
// multiplication for the extra indirection.
func (hv *Hypervisor) EnableNesting(name string) (*Hypervisor, error) {
	vm, ok := hv.vms[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoSuchVM, name)
	}
	if !vm.Running() {
		return nil, fmt.Errorf("%w: %q is %v", ErrNotRunning, name, vm.State())
	}
	if !vm.Config().EnableKVM {
		return nil, fmt.Errorf("%w: %q", ErrNoKVM, name)
	}
	if hv.GuestLevel() >= cpu.L3 {
		return nil, fmt.Errorf("%w: guest of %v", ErrNestingDepth, hv.GuestLevel())
	}
	if inner, ok := hv.nested[name]; ok {
		return inner, nil
	}
	inner := &Hypervisor{
		host:     hv.host,
		insideVM: vm,
		scope:    name + "/",
		os:       hostos.New(hv.host.eng),
		runLevel: hv.GuestLevel(),
		vms:      make(map[string]*qemu.VM),
		nested:   make(map[string]*Hypervisor),
		fwds:     make(map[string][]vnet.Addr),
	}
	hv.nested[name] = inner
	hv.host.tel.Counter("kvm_nesting_enabled_total").Inc()
	return inner, nil
}

// Nested returns the hypervisor running inside the named guest, if any.
func (hv *Hypervisor) Nested(name string) (*Hypervisor, bool) {
	inner, ok := hv.nested[name]
	return inner, ok
}

// FindByEndpoint searches this hypervisor's guests and their nested
// guests for the VM owning a network endpoint — how an operator maps "the
// machine answering on this port" back to a VM, forwarding chains and all.
// A guest's endpoint is derived from its name, so the guest's own level
// costs one map lookup; only the nested hypervisors are searched.
func (hv *Hypervisor) FindByEndpoint(endpoint string) (*qemu.VM, bool) {
	if name, ok := hv.guestName(endpoint); ok {
		if vm, ok := hv.vms[name]; ok && vm.Endpoint() == endpoint {
			return vm, true
		}
	}
	for _, inner := range hv.nested {
		if found, ok := inner.FindByEndpoint(endpoint); ok {
			return found, true
		}
	}
	return nil, false
}

// findByPort searches this hypervisor's guests and their nested guests for
// a VM whose monitor listens on the given host port.
func (hv *Hypervisor) findByPort(port int) *qemu.VM {
	if port == 0 {
		return nil
	}
	for name, vm := range hv.vms {
		if vm.Config().MonitorPort == port {
			return vm
		}
		if inner, ok := hv.nested[name]; ok {
			if found := inner.findByPort(port); found != nil {
				return found
			}
		}
	}
	return nil
}
