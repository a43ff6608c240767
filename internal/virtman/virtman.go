// Package virtman is a libvirt-style management layer over the kvm
// substrate: JSON domain definitions, define/start/destroy lifecycle,
// autostart, and migration — the orchestration surface a cloud control
// plane (or the paper's attacker, with stolen credentials) drives.
package virtman

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"

	"cloudskulk/internal/kvm"
	"cloudskulk/internal/qemu"
)

// Errors callers match on.
var (
	ErrDomainExists    = errors.New("virtman: domain already defined")
	ErrNoSuchDomain    = errors.New("virtman: no such domain")
	ErrDomainActive    = errors.New("virtman: domain is active")
	ErrDomainNotActive = errors.New("virtman: domain is not active")
	ErrBadDefinition   = errors.New("virtman: invalid domain definition")
)

// PortPair is one forwarded port in a domain definition.
type PortPair struct {
	Host  int `json:"host"`
	Guest int `json:"guest"`
}

// DiskDef defines one disk.
type DiskDef struct {
	File   string `json:"file"`
	Format string `json:"format"`
	SizeMB int64  `json:"size_mb"`
}

// IfaceDef defines one network interface.
type IfaceDef struct {
	Model    string     `json:"model"`
	Forwards []PortPair `json:"forwards,omitempty"`
}

// DomainDef is the persistent definition of a domain — the moral
// equivalent of libvirt's domain XML, in JSON.
type DomainDef struct {
	Name        string     `json:"name"`
	MemoryMB    int64      `json:"memory_mb"`
	VCPUs       int        `json:"vcpus"`
	Machine     string     `json:"machine,omitempty"`
	KVM         bool       `json:"kvm"`
	Disks       []DiskDef  `json:"disks,omitempty"`
	Interfaces  []IfaceDef `json:"interfaces,omitempty"`
	MonitorPort int        `json:"monitor_port,omitempty"`
	Incoming    string     `json:"incoming,omitempty"`
	Autostart   bool       `json:"autostart,omitempty"`
}

// Validate checks the definition for the errors libvirt would reject.
func (d DomainDef) Validate() error {
	if d.Name == "" {
		return fmt.Errorf("%w: missing name", ErrBadDefinition)
	}
	if d.MemoryMB <= 0 {
		return fmt.Errorf("%w: memory_mb must be positive", ErrBadDefinition)
	}
	if d.VCPUs <= 0 {
		return fmt.Errorf("%w: vcpus must be positive", ErrBadDefinition)
	}
	for _, iface := range d.Interfaces {
		for _, f := range iface.Forwards {
			if f.Host <= 0 || f.Guest <= 0 {
				return fmt.Errorf("%w: forward ports must be positive", ErrBadDefinition)
			}
		}
	}
	return nil
}

// ToConfig lowers the definition to a QEMU launch configuration.
func (d DomainDef) ToConfig() qemu.Config {
	cfg := qemu.Config{
		Name:        d.Name,
		Machine:     d.Machine,
		MemoryMB:    d.MemoryMB,
		CPUs:        d.VCPUs,
		EnableKVM:   d.KVM,
		MonitorPort: d.MonitorPort,
		Incoming:    d.Incoming,
	}
	if cfg.Machine == "" {
		cfg.Machine = "pc-i440fx-2.9"
	}
	for _, disk := range d.Disks {
		cfg.Drives = append(cfg.Drives, qemu.Drive{
			File:   disk.File,
			Format: disk.Format,
			SizeMB: disk.SizeMB,
		})
	}
	for _, iface := range d.Interfaces {
		nd := qemu.NetDev{Model: iface.Model}
		for _, f := range iface.Forwards {
			nd.HostFwds = append(nd.HostFwds, qemu.FwdRule{HostPort: f.Host, GuestPort: f.Guest})
		}
		cfg.NetDevs = append(cfg.NetDevs, nd)
	}
	if len(cfg.Drives) == 0 {
		cfg.Drives = []qemu.Drive{{File: d.Name + ".qcow2", Format: "qcow2", SizeMB: 20 * 1024}}
	}
	if len(cfg.NetDevs) == 0 {
		cfg.NetDevs = []qemu.NetDev{{Model: "virtio-net-pci"}}
	}
	return cfg
}

// DomainState is a domain's lifecycle state in the manager's view.
type DomainState string

// Domain states (virsh vocabulary).
const (
	StateDefined DomainState = "shut off"
	StateRunning DomainState = "running"
	StatePaused  DomainState = "paused"
)

// Domain is one managed definition plus its runtime handle.
type Domain struct {
	Def DomainDef
	vm  *qemu.VM
}

// Active reports whether the domain has a live VM.
func (d *Domain) Active() bool {
	return d.vm != nil && d.vm.State() != qemu.StateShutOff
}

// State returns the virsh-style state.
func (d *Domain) State() DomainState {
	if d.vm == nil {
		return StateDefined
	}
	switch d.vm.State() {
	case qemu.StateRunning:
		return StateRunning
	case qemu.StatePaused, qemu.StateIncoming:
		return StatePaused
	default:
		return StateDefined
	}
}

// VM returns the live VM handle, or nil when shut off.
func (d *Domain) VM() *qemu.VM { return d.vm }

// Manager is the per-host management daemon (libvirtd).
type Manager struct {
	host    *kvm.Host
	domains map[string]*Domain
}

// NewManager returns a manager over the host.
func NewManager(host *kvm.Host) *Manager {
	return &Manager{
		host:    host,
		domains: make(map[string]*Domain),
	}
}

// Define registers a definition without starting it.
func (m *Manager) Define(def DomainDef) (*Domain, error) {
	if err := def.Validate(); err != nil {
		return nil, err
	}
	if _, exists := m.domains[def.Name]; exists {
		return nil, fmt.Errorf("%w: %q", ErrDomainExists, def.Name)
	}
	d := &Domain{Def: def}
	m.domains[def.Name] = d
	return d, nil
}

// DefineJSON registers a definition given as JSON.
func (m *Manager) DefineJSON(data []byte) (*Domain, error) {
	var def DomainDef
	if err := json.Unmarshal(data, &def); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadDefinition, err)
	}
	return m.Define(def)
}

// Undefine removes an inactive definition.
func (m *Manager) Undefine(name string) error {
	d, ok := m.domains[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoSuchDomain, name)
	}
	if d.Active() {
		return fmt.Errorf("%w: %q", ErrDomainActive, name)
	}
	delete(m.domains, name)
	return nil
}

// Start creates and boots a defined domain.
func (m *Manager) Start(name string) error {
	d, ok := m.domains[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoSuchDomain, name)
	}
	if d.Active() {
		return fmt.Errorf("%w: %q", ErrDomainActive, name)
	}
	vm, err := m.host.Hypervisor().CreateVM(d.Def.ToConfig())
	if err != nil {
		return err
	}
	if err := m.host.Hypervisor().Launch(name); err != nil {
		return err
	}
	d.vm = vm
	return nil
}

// Destroy hard-stops an active domain (virsh destroy), keeping the
// definition.
func (m *Manager) Destroy(name string) error {
	d, ok := m.domains[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoSuchDomain, name)
	}
	if !d.Active() {
		return fmt.Errorf("%w: %q", ErrDomainNotActive, name)
	}
	if err := m.host.Hypervisor().Kill(name); err != nil {
		return err
	}
	d.vm = nil
	return nil
}

// Reboot restarts an active domain's guest.
func (m *Manager) Reboot(name string) error {
	d, ok := m.domains[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoSuchDomain, name)
	}
	if !d.Active() {
		return fmt.Errorf("%w: %q", ErrDomainNotActive, name)
	}
	return m.host.Hypervisor().Reboot(name)
}

// Suspend pauses an active domain (virsh suspend).
func (m *Manager) Suspend(name string) error {
	d, ok := m.domains[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoSuchDomain, name)
	}
	if !d.Active() {
		return fmt.Errorf("%w: %q", ErrDomainNotActive, name)
	}
	return d.vm.Pause()
}

// Resume unpauses a suspended domain (virsh resume).
func (m *Manager) Resume(name string) error {
	d, ok := m.domains[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoSuchDomain, name)
	}
	if d.vm == nil {
		return fmt.Errorf("%w: %q", ErrDomainNotActive, name)
	}
	return d.vm.Resume()
}

// Migrate live-migrates an active domain to a destination URI.
func (m *Manager) Migrate(name, uri string) error {
	d, ok := m.domains[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoSuchDomain, name)
	}
	if !d.Active() {
		return fmt.Errorf("%w: %q", ErrDomainNotActive, name)
	}
	_, err := d.vm.Monitor().Execute("migrate -d " + uri)
	return err
}

// Domain looks up a managed domain.
func (m *Manager) Domain(name string) (*Domain, bool) {
	d, ok := m.domains[name]
	return d, ok
}

// List returns all domains sorted by name.
func (m *Manager) List() []*Domain {
	out := make([]*Domain, 0, len(m.domains))
	for _, d := range m.domains {
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Def.Name < out[j].Def.Name })
	return out
}

// AutostartAll starts every autostart-flagged inactive domain, returning
// the names started. Errors abort (the daemon would log and continue; we
// surface them).
func (m *Manager) AutostartAll() ([]string, error) {
	var started []string
	for _, d := range m.List() {
		if !d.Def.Autostart || d.Active() {
			continue
		}
		if err := m.Start(d.Def.Name); err != nil {
			return started, err
		}
		started = append(started, d.Def.Name)
	}
	return started, nil
}

// DumpJSON serializes a domain's definition (virsh dumpxml, in JSON).
func (m *Manager) DumpJSON(name string) ([]byte, error) {
	d, ok := m.domains[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoSuchDomain, name)
	}
	return json.MarshalIndent(d.Def, "", "  ")
}
