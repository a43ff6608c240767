package qemu

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"cloudskulk/internal/cpu"
	"cloudskulk/internal/sim"
)

func runningVM(t *testing.T) *VM {
	t.Helper()
	eng := sim.NewEngine(1)
	cfg := DefaultConfig("guest0")
	cfg.MemoryMB = 8
	cfg.NetDevs[0].HostFwds = []FwdRule{{2222, 22}}
	vm := NewVM(eng, cfg, cpu.DefaultModel(), cpu.L1, "guest0.nic")
	if err := vm.Boot(time.Second, sim.NewRand(1), 0.3); err != nil {
		t.Fatal(err)
	}
	return vm
}

func TestMonitorInfoStatus(t *testing.T) {
	vm := runningVM(t)
	m := vm.Monitor()
	out, err := m.Execute("info status")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "running") {
		t.Fatalf("status = %q", out)
	}
	if _, err := m.Execute("stop"); err != nil {
		t.Fatal(err)
	}
	out, _ = m.Execute("info status")
	if !strings.Contains(out, "paused") {
		t.Fatalf("status = %q", out)
	}
	if _, err := m.Execute("cont"); err != nil {
		t.Fatal(err)
	}
	out, _ = m.Execute("info status")
	if !strings.Contains(out, "running") {
		t.Fatalf("status after cont = %q", out)
	}
}

func TestMonitorReconCommands(t *testing.T) {
	vm := runningVM(t)
	m := vm.Monitor()
	tests := []struct {
		cmd  string
		want []string
	}{
		{"info qtree", []string{"virtio-net-pci", "virtio-blk-pci", "guest0.qcow2", "pci.0"}},
		{"info mtree", []string{"pc.ram", "pc.bios"}},
		{"info mem", []string{"total pages: 2048", "8 MB"}},
		{"info blockstats", []string{"drive0:", "rd_bytes=0"}},
		{"info network", []string{"virtio-net-pci", "tcp::2222 -> :22"}},
		{"info name", []string{"guest0"}},
		{"info migrate", []string{"no migration in progress"}},
		{"help", []string{"migrate", "info qtree"}},
	}
	for _, tt := range tests {
		out, err := m.Execute(tt.cmd)
		if err != nil {
			t.Fatalf("%s: %v", tt.cmd, err)
		}
		for _, w := range tt.want {
			if !strings.Contains(out, w) {
				t.Fatalf("%s output missing %q:\n%s", tt.cmd, w, out)
			}
		}
	}
}

func TestMonitorBlockstatsReflectIO(t *testing.T) {
	vm := runningVM(t)
	vm.RecordBlockIO(0, 4096, 8192, 1, 2)
	out, err := vm.Monitor().Execute("info blockstats")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "rd_bytes=4096") || !strings.Contains(out, "wr_bytes=8192") {
		t.Fatalf("blockstats = %q", out)
	}
}

func TestMonitorUnknownCommands(t *testing.T) {
	vm := runningVM(t)
	m := vm.Monitor()
	for _, cmd := range []string{"bogus", "info bogus", "info", "migrate_set_speed"} {
		if _, err := m.Execute(cmd); !errors.Is(err, ErrUnknownCommand) {
			t.Fatalf("%q err = %v, want ErrUnknownCommand", cmd, err)
		}
	}
	if out, err := m.Execute(""); err != nil || out != "" {
		t.Fatalf("empty line: out=%q err=%v", out, err)
	}
}

func TestMonitorMigrateSetSpeed(t *testing.T) {
	vm := runningVM(t)
	m := vm.Monitor()
	if m.SpeedLimit() != DefaultMigrationSpeed {
		t.Fatalf("default speed = %d", m.SpeedLimit())
	}
	cases := []struct {
		arg  string
		want int64
	}{
		{"1g", 1 << 30},
		{"32m", 32 << 20},
		{"512k", 512 << 10},
		{"1048576", 1 << 20},
		{"2G", 2 << 30},
	}
	for _, tt := range cases {
		if _, err := m.Execute("migrate_set_speed " + tt.arg); err != nil {
			t.Fatal(err)
		}
		if m.SpeedLimit() != tt.want {
			t.Fatalf("speed after %q = %d, want %d", tt.arg, m.SpeedLimit(), tt.want)
		}
	}
	// A cap of zero or less would silently lift the limit in the
	// migration engine, and an overflowing one wraps negative: each is
	// rejected and the previous cap stays.
	for _, bad := range []string{"lots", "0", "-5", "-1g", "9000000000g"} {
		if _, err := m.Execute("migrate_set_speed " + bad); err == nil {
			t.Fatalf("bad size %q accepted", bad)
		}
		if m.SpeedLimit() != 2<<30 {
			t.Fatalf("speed after %q = %d, want the previous 2G cap", bad, m.SpeedLimit())
		}
	}
}

type fakeMigrator struct {
	vm  *VM
	uri string
	err error
}

func (f *fakeMigrator) Migrate(vm *VM, uri string) error {
	f.vm, f.uri = vm, uri
	return f.err
}

func TestMonitorMigrateDispatch(t *testing.T) {
	vm := runningVM(t)
	m := vm.Monitor()
	if _, err := m.Execute("migrate tcp:127.0.0.1:4444"); !errors.Is(err, ErrNoMigrator) {
		t.Fatalf("no-migrator err = %v", err)
	}
	fm := &fakeMigrator{}
	vm.SetMigrator(fm)
	if _, err := m.Execute("migrate -d tcp:127.0.0.1:4444"); err != nil {
		t.Fatal(err)
	}
	if fm.vm != vm || fm.uri != "tcp:127.0.0.1:4444" {
		t.Fatalf("migrator got vm=%v uri=%q", fm.vm, fm.uri)
	}
	if _, err := m.Execute("migrate -d"); !errors.Is(err, ErrUnknownCommand) {
		t.Fatalf("missing uri err = %v", err)
	}
	fm.err = errors.New("boom")
	if _, err := m.Execute("migrate tcp:x"); err == nil {
		t.Fatal("migrator error swallowed")
	}
}

func TestMonitorQuitShutsDown(t *testing.T) {
	vm := runningVM(t)
	if _, err := vm.Monitor().Execute("quit"); err != nil {
		t.Fatal(err)
	}
	if vm.State() != StateShutOff {
		t.Fatalf("state = %v", vm.State())
	}
}

func TestMonitorSystemPowerdown(t *testing.T) {
	vm := runningVM(t)
	if _, err := vm.Monitor().Execute("system_powerdown"); err != nil {
		t.Fatal(err)
	}
	if vm.State() != StateShutOff {
		t.Fatalf("state = %v", vm.State())
	}
}

func TestMonitorIsSingleton(t *testing.T) {
	vm := runningVM(t)
	if vm.Monitor() != vm.Monitor() {
		t.Fatal("Monitor() returned different instances")
	}
}

// TestMonitorServe drives a full telnet-style session over a net.Pipe, the
// way the attacker opens the victim's multiplexed monitor.
func TestMonitorServe(t *testing.T) {
	vm := runningVM(t)
	client, server := net.Pipe()
	done := make(chan error, 1)
	go func() { done <- vm.Monitor().Serve(server) }()

	r := bufio.NewReader(client)
	readTo := func(marker string) string {
		var b strings.Builder
		buf := make([]byte, 1)
		for !strings.HasSuffix(b.String(), marker) {
			if _, err := r.Read(buf); err != nil {
				t.Fatalf("read: %v (so far %q)", err, b.String())
			}
			b.Write(buf)
		}
		return b.String()
	}

	greeting := readTo("(qemu) ")
	if !strings.Contains(greeting, "QEMU 2.9.50 monitor") {
		t.Fatalf("greeting = %q", greeting)
	}
	fmt.Fprintf(client, "info status\n")
	out := readTo("(qemu) ")
	if !strings.Contains(out, "VM status: running") {
		t.Fatalf("info status over pipe = %q", out)
	}
	fmt.Fprintf(client, "not-a-command\n")
	out = readTo("(qemu) ")
	if !strings.Contains(out, "unknown monitor command") {
		t.Fatalf("error not reported to session: %q", out)
	}
	// A verb that merely starts with "quit" is an unknown command, not
	// the end of the session.
	fmt.Fprintf(client, "quitx\n")
	out = readTo("(qemu) ")
	if !strings.Contains(out, "unknown monitor command") {
		t.Fatalf("quitx over pipe = %q", out)
	}
	fmt.Fprintf(client, "info name\n")
	if out = readTo("(qemu) "); !strings.Contains(out, "guest0") {
		t.Fatalf("info name after quitx = %q", out)
	}
	fmt.Fprintf(client, "quit\n")
	if err := <-done; err != nil {
		t.Fatalf("serve: %v", err)
	}
	if vm.State() != StateShutOff {
		t.Fatalf("state after quit = %v", vm.State())
	}
	_ = client.Close()
}
