package qemu

import (
	"strconv"
	"testing"
	"time"

	"cloudskulk/internal/cpu"
	"cloudskulk/internal/sim"
)

// fuzzVM builds a fresh booted VM per input, so state left behind by
// one command line (a quit, a savevm) never bleeds into the next case.
func fuzzVM() (*VM, error) {
	eng := sim.NewEngine(1)
	cfg := DefaultConfig("guest0")
	cfg.MemoryMB = 8
	cfg.NetDevs[0].HostFwds = []FwdRule{{2222, 22}}
	vm := NewVM(eng, cfg, cpu.DefaultModel(), cpu.L1, "guest0.nic")
	if err := vm.Boot(time.Second, sim.NewRand(1), 0.3); err != nil {
		return nil, err
	}
	return vm, nil
}

// FuzzMonitorDispatch drives arbitrary console input through the monitor's
// command table. The monitor is the attacker-reachable parser surface of
// this stack (the paper's `telnet 127.0.0.1 5555`), so the contract is
// strict: a line may be rejected but must never panic, and no line may
// leave the migration speed cap at zero or below, which the migration
// engine would read as "no cap".
func FuzzMonitorDispatch(f *testing.F) {
	for _, seed := range []string{
		// Spellings from the monitor tests.
		"info status", "info qtree", "info mtree", "info mem",
		"info blockstats", "info network", "info name", "info migrate",
		"info stats", "info snapshots", "help", "stop", "cont",
		"migrate -d tcp:127.0.0.1:4444", "migrate_set_speed 1g",
		"migrate_set_capability xbzrle on", "migrate_cancel",
		"hostfwd_add tcp::8080-:80", "hostfwd_remove tcp::2222-:22",
		"savevm snap1", "loadvm snap1", "delvm snap1",
		"system_powerdown", "quit", "q", "info", "",
		// Rejected sizes: none may lift the speed cap.
		"migrate_set_speed 0", "migrate_set_speed -5",
		"migrate_set_speed -1g", "migrate_set_speed 9000000000g",
		"migrate_set_speed lots", "migrate_set_speed 99999999999999999999g",
		// Parser edge shapes.
		"quitx", "q now", "\tinfo\tname\t", "migrate -d",
		"migrate_set_capability xbzrle maybe",
		"hostfwd_add tcp::99999999999999999999-:22", "loadvm nosuch",
		"info \x00status", "savevm \xff", "{",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, line string) {
		// Hang detector: a dispatch that loops forever would otherwise
		// stall the fuzzer silently (hanging inputs are never saved to
		// the corpus). Crashing with the input in hand makes it
		// reproducible. Normal inputs finish in well under a millisecond.
		watchdog := time.AfterFunc(2*time.Second, func() {
			panic("slow fuzz input: " + strconv.Quote(line))
		})
		defer watchdog.Stop()
		vm, err := fuzzVM()
		if err != nil {
			t.Fatalf("building fuzz VM: %v", err)
		}
		m := vm.Monitor()
		if _, err := m.Execute(line); err != nil && line == "info status" {
			t.Fatalf("known-good command failed: %v", err)
		}
		if m.SpeedLimit() <= 0 {
			t.Fatalf("%q left speed cap %d", line, m.SpeedLimit())
		}
	})
}
