// Package qemu models the user-space VM monitor the attack manipulates: VM
// configuration and command lines (the recon surface), VM lifecycle
// including `-incoming` migration targets, an emulated device tree, block
// and network device state, and the QEMU Monitor text protocol
// (`info qtree`, `info blockstats`, `migrate`, ...).
package qemu

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"cloudskulk/internal/mem"
)

// Errors callers match on.
var (
	ErrBadCommandLine = errors.New("qemu: cannot parse command line")
	ErrBadState       = errors.New("qemu: operation invalid in current state")
)

// FwdRule is one user-mode networking hostfwd entry: host port -> guest
// port.
type FwdRule struct {
	HostPort  int
	GuestPort int
}

// NetDev describes one emulated NIC.
type NetDev struct {
	Model    string // e.g. "virtio-net-pci", "e1000"
	HostFwds []FwdRule
}

// Drive describes one emulated block device.
type Drive struct {
	File   string // image path
	Format string // "qcow2", "raw"
	SizeMB int64
}

// Config is everything needed to launch a VM — and everything live
// migration requires to match between source and destination.
type Config struct {
	Name      string
	Machine   string // e.g. "pc-i440fx-2.9"
	MemoryMB  int64
	CPUs      int
	EnableKVM bool
	Drives    []Drive
	NetDevs   []NetDev
	// MonitorPort exposes the QEMU monitor on a host telnet port
	// (0 = monitor on stdio only, unreachable remotely).
	MonitorPort int
	// Incoming, when non-empty, launches the VM paused, listening for
	// migration data at the given URI (e.g. "tcp:0.0.0.0:4444").
	Incoming string
	// MemTemplate, when set, backs guest RAM with a frozen golden image:
	// the VM forks the template copy-on-write (mem.SpawnFrom) instead of
	// allocating and populating pages, so creation is O(1) in guest size.
	// The template's size must equal MemoryMB. It models `-loadvm` from a
	// shared snapshot and is deliberately invisible to CommandLine — the
	// recon surface shows the same flags either way.
	MemTemplate *mem.Template
}

// DefaultConfig returns the paper's guest configuration: 1 GiB of RAM, one
// vCPU, KVM enabled, one qcow2 disk and one user-mode NIC.
func DefaultConfig(name string) Config {
	return Config{
		Name:      name,
		Machine:   "pc-i440fx-2.9",
		MemoryMB:  1024,
		CPUs:      1,
		EnableKVM: true,
		Drives: []Drive{{
			File:   name + ".qcow2",
			Format: "qcow2",
			SizeMB: 20 * 1024,
		}},
		NetDevs: []NetDev{{
			Model: "virtio-net-pci",
		}},
	}
}

// Clone deep-copies the config.
func (c Config) Clone() Config {
	out := c
	out.Drives = append([]Drive(nil), c.Drives...)
	out.NetDevs = make([]NetDev, len(c.NetDevs))
	for i, nd := range c.NetDevs {
		out.NetDevs[i] = NetDev{
			Model:    nd.Model,
			HostFwds: append([]FwdRule(nil), nd.HostFwds...),
		}
	}
	return out
}

// MatchesForMigration reports whether dst is a valid live-migration
// destination for src: machine type, memory size, CPU count, and device
// complement must all match, or the destination will reject the stream.
// Names, image paths, ports, and -incoming naturally differ.
func (c Config) MatchesForMigration(dst Config) error {
	if c.Machine != dst.Machine {
		return fmt.Errorf("qemu: machine mismatch %q vs %q", c.Machine, dst.Machine)
	}
	if c.MemoryMB != dst.MemoryMB {
		return fmt.Errorf("qemu: memory mismatch %d vs %d MB", c.MemoryMB, dst.MemoryMB)
	}
	if c.CPUs != dst.CPUs {
		return fmt.Errorf("qemu: cpu mismatch %d vs %d", c.CPUs, dst.CPUs)
	}
	if len(c.Drives) != len(dst.Drives) {
		return fmt.Errorf("qemu: drive count mismatch %d vs %d", len(c.Drives), len(dst.Drives))
	}
	for i := range c.Drives {
		if c.Drives[i].Format != dst.Drives[i].Format {
			return fmt.Errorf("qemu: drive %d format mismatch %q vs %q",
				i, c.Drives[i].Format, dst.Drives[i].Format)
		}
	}
	if len(c.NetDevs) != len(dst.NetDevs) {
		return fmt.Errorf("qemu: netdev count mismatch %d vs %d", len(c.NetDevs), len(dst.NetDevs))
	}
	for i := range c.NetDevs {
		if c.NetDevs[i].Model != dst.NetDevs[i].Model {
			return fmt.Errorf("qemu: netdev %d model mismatch %q vs %q",
				i, c.NetDevs[i].Model, dst.NetDevs[i].Model)
		}
	}
	return nil
}

// CommandLine renders the config as the qemu-system command the host's
// process table and shell history would show — the attacker's primary
// recon input. Every guest a host creates renders one, so the line is
// appended without fmt into a stack buffer sized for the usual line; the
// returned string is its only heap allocation unless the line outgrows it.
func (c Config) CommandLine() string {
	var buf [512]byte
	b := append(buf[:0], "qemu-system-x86_64"...)
	if c.EnableKVM {
		b = append(b, " -enable-kvm"...)
	}
	b = append(b, " -name "...)
	b = append(b, c.Name...)
	b = append(b, " -machine "...)
	b = append(b, c.Machine...)
	b = append(b, " -m "...)
	b = strconv.AppendInt(b, c.MemoryMB, 10)
	b = append(b, " -smp "...)
	b = strconv.AppendInt(b, int64(c.CPUs), 10)
	for _, d := range c.Drives {
		b = append(b, " -drive file="...)
		b = append(b, d.File...)
		b = append(b, ",format="...)
		b = append(b, d.Format...)
		b = append(b, ",size="...)
		b = strconv.AppendInt(b, d.SizeMB, 10)
	}
	for i, nd := range c.NetDevs {
		b = append(b, " -device "...)
		b = append(b, nd.Model...)
		b = append(b, ",netdev=net"...)
		b = strconv.AppendInt(b, int64(i), 10)
		b = append(b, " -netdev user,id=net"...)
		b = strconv.AppendInt(b, int64(i), 10)
		// Sorted by host port for deterministic rendering, on a copy: the
		// config's own slice keeps its order.
		fwds := nd.HostFwds
		if len(fwds) > 1 {
			fwds = append([]FwdRule(nil), fwds...)
			sort.Slice(fwds, func(a, z int) bool { return fwds[a].HostPort < fwds[z].HostPort })
		}
		for _, f := range fwds {
			b = append(b, ",hostfwd=tcp::"...)
			b = strconv.AppendInt(b, int64(f.HostPort), 10)
			b = append(b, "-:"...)
			b = strconv.AppendInt(b, int64(f.GuestPort), 10)
		}
	}
	if c.MonitorPort != 0 {
		b = append(b, " -monitor telnet:127.0.0.1:"...)
		b = strconv.AppendInt(b, int64(c.MonitorPort), 10)
		b = append(b, ",server,nowait"...)
	}
	if c.Incoming != "" {
		b = append(b, " -incoming "...)
		b = append(b, c.Incoming...)
	}
	return string(b)
}

// ParseCommandLine reconstructs a Config from a qemu-system command line —
// the attacker's `ps -ef` / `history` recon step. It accepts exactly the
// dialect CommandLine produces plus tolerant ordering.
func ParseCommandLine(line string) (Config, error) {
	fields := strings.Fields(line)
	if len(fields) == 0 || !strings.HasPrefix(fields[0], "qemu-system") {
		return Config{}, fmt.Errorf("%w: not a qemu command: %q", ErrBadCommandLine, line)
	}
	var c Config
	netIdx := -1
	for i := 1; i < len(fields); i++ {
		switch fields[i] {
		case "-enable-kvm":
			c.EnableKVM = true
		case "-name":
			i++
			if i >= len(fields) {
				return Config{}, fmt.Errorf("%w: -name missing value", ErrBadCommandLine)
			}
			c.Name = fields[i]
		case "-machine":
			i++
			if i >= len(fields) {
				return Config{}, fmt.Errorf("%w: -machine missing value", ErrBadCommandLine)
			}
			c.Machine = fields[i]
		case "-m":
			i++
			if i >= len(fields) {
				return Config{}, fmt.Errorf("%w: -m missing value", ErrBadCommandLine)
			}
			mb, err := strconv.ParseInt(fields[i], 10, 64)
			if err != nil {
				return Config{}, fmt.Errorf("%w: -m %q", ErrBadCommandLine, fields[i])
			}
			c.MemoryMB = mb
		case "-smp":
			i++
			if i >= len(fields) {
				return Config{}, fmt.Errorf("%w: -smp missing value", ErrBadCommandLine)
			}
			n, err := strconv.Atoi(fields[i])
			if err != nil {
				return Config{}, fmt.Errorf("%w: -smp %q", ErrBadCommandLine, fields[i])
			}
			c.CPUs = n
		case "-drive":
			i++
			if i >= len(fields) {
				return Config{}, fmt.Errorf("%w: -drive missing value", ErrBadCommandLine)
			}
			d, err := parseDrive(fields[i])
			if err != nil {
				return Config{}, err
			}
			c.Drives = append(c.Drives, d)
		case "-device":
			i++
			if i >= len(fields) {
				return Config{}, fmt.Errorf("%w: -device missing value", ErrBadCommandLine)
			}
			model, _, _ := strings.Cut(fields[i], ",")
			c.NetDevs = append(c.NetDevs, NetDev{Model: model})
			netIdx = len(c.NetDevs) - 1
		case "-netdev":
			i++
			if i >= len(fields) {
				return Config{}, fmt.Errorf("%w: -netdev missing value", ErrBadCommandLine)
			}
			if netIdx < 0 {
				return Config{}, fmt.Errorf("%w: -netdev before -device", ErrBadCommandLine)
			}
			fwds, err := parseHostFwds(fields[i])
			if err != nil {
				return Config{}, err
			}
			c.NetDevs[netIdx].HostFwds = fwds
		case "-monitor":
			i++
			if i >= len(fields) {
				return Config{}, fmt.Errorf("%w: -monitor missing value", ErrBadCommandLine)
			}
			port, err := parseMonitorPort(fields[i])
			if err != nil {
				return Config{}, err
			}
			c.MonitorPort = port
		case "-incoming":
			i++
			if i >= len(fields) {
				return Config{}, fmt.Errorf("%w: -incoming missing value", ErrBadCommandLine)
			}
			c.Incoming = fields[i]
		default:
			// Unknown flags are skipped (real command lines carry many).
		}
	}
	if c.MemoryMB == 0 {
		c.MemoryMB = 128 // qemu's historical default
	}
	if c.CPUs == 0 {
		c.CPUs = 1
	}
	return c, nil
}

func parseDrive(spec string) (Drive, error) {
	var d Drive
	for _, kv := range strings.Split(spec, ",") {
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			continue
		}
		switch k {
		case "file":
			d.File = v
		case "format":
			d.Format = v
		case "size":
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				return Drive{}, fmt.Errorf("%w: drive size %q", ErrBadCommandLine, v)
			}
			d.SizeMB = n
		}
	}
	if d.File == "" {
		return Drive{}, fmt.Errorf("%w: drive without file=", ErrBadCommandLine)
	}
	return d, nil
}

func parseHostFwds(spec string) ([]FwdRule, error) {
	var fwds []FwdRule
	for _, kv := range strings.Split(spec, ",") {
		k, v, ok := strings.Cut(kv, "=")
		if !ok || k != "hostfwd" {
			continue
		}
		// tcp::HOST-:GUEST
		v = strings.TrimPrefix(v, "tcp::")
		hostStr, guestStr, ok := strings.Cut(v, "-:")
		if !ok {
			return nil, fmt.Errorf("%w: hostfwd %q", ErrBadCommandLine, v)
		}
		hp, err := strconv.Atoi(hostStr)
		if err != nil {
			return nil, fmt.Errorf("%w: hostfwd host port %q", ErrBadCommandLine, hostStr)
		}
		gp, err := strconv.Atoi(guestStr)
		if err != nil {
			return nil, fmt.Errorf("%w: hostfwd guest port %q", ErrBadCommandLine, guestStr)
		}
		fwds = append(fwds, FwdRule{HostPort: hp, GuestPort: gp})
	}
	return fwds, nil
}

func parseMonitorPort(spec string) (int, error) {
	// telnet:127.0.0.1:PORT,server,nowait
	rest := strings.TrimPrefix(spec, "telnet:")
	hostport, _, _ := strings.Cut(rest, ",")
	_, portStr, ok := strings.Cut(hostport, ":")
	if !ok {
		return 0, fmt.Errorf("%w: monitor spec %q", ErrBadCommandLine, spec)
	}
	p, err := strconv.Atoi(portStr)
	if err != nil {
		return 0, fmt.Errorf("%w: monitor port %q", ErrBadCommandLine, portStr)
	}
	return p, nil
}

// ParseIncomingPort extracts the TCP port from an -incoming URI like
// "tcp:0.0.0.0:4444".
func ParseIncomingPort(uri string) (int, error) {
	parts := strings.Split(uri, ":")
	if len(parts) < 2 || parts[0] != "tcp" {
		return 0, fmt.Errorf("%w: incoming uri %q", ErrBadCommandLine, uri)
	}
	p, err := strconv.Atoi(parts[len(parts)-1])
	if err != nil {
		return 0, fmt.Errorf("%w: incoming port in %q", ErrBadCommandLine, uri)
	}
	return p, nil
}
