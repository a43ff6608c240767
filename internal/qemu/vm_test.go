package qemu

import (
	"errors"
	"testing"
	"time"

	"cloudskulk/internal/cpu"
	"cloudskulk/internal/mem"
	"cloudskulk/internal/sim"
)

func newVM(t *testing.T, name string) (*sim.Engine, *VM) {
	t.Helper()
	eng := sim.NewEngine(1)
	cfg := DefaultConfig(name)
	cfg.MemoryMB = 8 // keep test RAM small
	return eng, NewVM(eng, cfg, cpu.DefaultModel(), cpu.L1, name+".nic")
}

func bootVM(t *testing.T, eng *sim.Engine, vm *VM) {
	t.Helper()
	if err := vm.Boot(10*time.Second, sim.NewRand(1), 0.3); err != nil {
		t.Fatal(err)
	}
}

func TestVMLifecycle(t *testing.T) {
	eng, vm := newVM(t, "guest0")
	if vm.State() != StateCreated {
		t.Fatalf("state = %v", vm.State())
	}
	bootVM(t, eng, vm)
	if !vm.Running() {
		t.Fatalf("state after boot = %v", vm.State())
	}
	if eng.Now() != 10*time.Second {
		t.Fatalf("boot took %v", eng.Now())
	}
	if err := vm.Pause(); err != nil {
		t.Fatal(err)
	}
	if vm.State() != StatePaused {
		t.Fatalf("state = %v", vm.State())
	}
	if err := vm.Resume(); err != nil {
		t.Fatal(err)
	}
	if !vm.Running() {
		t.Fatal("not running after resume")
	}
	if err := vm.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if vm.State() != StateShutOff {
		t.Fatalf("state = %v", vm.State())
	}
	if err := vm.Shutdown(); !errors.Is(err, ErrBadState) {
		t.Fatalf("double shutdown err = %v", err)
	}
}

func TestVMStateErrors(t *testing.T) {
	eng, vm := newVM(t, "g")
	if err := vm.Pause(); !errors.Is(err, ErrBadState) {
		t.Fatalf("pause before boot err = %v", err)
	}
	if err := vm.Resume(); !errors.Is(err, ErrBadState) {
		t.Fatalf("resume before boot err = %v", err)
	}
	bootVM(t, eng, vm)
	if err := vm.Boot(time.Second, sim.NewRand(1), 0.3); !errors.Is(err, ErrBadState) {
		t.Fatalf("double boot err = %v", err)
	}
	if err := vm.FinishIncoming(); !errors.Is(err, ErrBadState) {
		t.Fatalf("FinishIncoming on running err = %v", err)
	}
}

func TestIncomingVMBootsPausedAndEmpty(t *testing.T) {
	eng := sim.NewEngine(1)
	cfg := DefaultConfig("dst")
	cfg.MemoryMB = 8
	cfg.Incoming = "tcp:0.0.0.0:4444"
	vm := NewVM(eng, cfg, cpu.DefaultModel(), cpu.L1, "dst.nic")
	bootVM(t, eng, vm)
	if vm.State() != StateIncoming {
		t.Fatalf("state = %v", vm.State())
	}
	// RAM must not be populated: it arrives via migration.
	for p := 0; p < vm.RAM().NumPages(); p++ {
		if vm.RAM().MustRead(p) != 0 {
			t.Fatal("incoming VM has populated RAM")
		}
	}
	if err := vm.FinishIncoming(); err != nil {
		t.Fatal(err)
	}
	if vm.State() != StatePaused {
		t.Fatalf("state after finish = %v", vm.State())
	}
	if err := vm.Resume(); err != nil {
		t.Fatal(err)
	}
	if !vm.Running() {
		t.Fatal("not running")
	}
}

func TestBootPopulatesRAM(t *testing.T) {
	eng, vm := newVM(t, "g")
	bootVM(t, eng, vm)
	nonzero := 0
	for p := 0; p < vm.RAM().NumPages(); p++ {
		if vm.RAM().MustRead(p) != 0 {
			nonzero++
		}
	}
	if nonzero == 0 {
		t.Fatal("boot left RAM all zero")
	}
	if vm.RAM().DirtyCount() != 0 {
		t.Fatal("boot left dirty log set")
	}
}

func TestBlockStats(t *testing.T) {
	_, vm := newVM(t, "g")
	vm.RecordBlockIO(0, 100, 200, 1, 2)
	vm.RecordBlockIO(0, 10, 20, 1, 1)
	st, ok := vm.BlockStatsFor(0)
	if !ok {
		t.Fatal("drive 0 missing")
	}
	if st.RdBytes != 110 || st.WrBytes != 220 || st.RdOps != 2 || st.WrOps != 3 {
		t.Fatalf("stats = %+v", st)
	}
	vm.RecordBlockIO(5, 1, 1, 1, 1) // ignored
	if _, ok := vm.BlockStatsFor(5); ok {
		t.Fatal("phantom drive")
	}
}

func TestAccessors(t *testing.T) {
	eng, vm := newVM(t, "guest0")
	if vm.Name() != "guest0" || vm.Endpoint() != "guest0.nic" {
		t.Fatalf("name/endpoint = %q/%q", vm.Name(), vm.Endpoint())
	}
	if vm.Level() != cpu.L1 {
		t.Fatalf("level = %v", vm.Level())
	}
	if vm.Engine() != eng {
		t.Fatal("engine mismatch")
	}
	vm.SetPID(4242)
	if vm.PID() != 4242 {
		t.Fatalf("pid = %d", vm.PID())
	}
	// Config is a copy.
	c := vm.Config()
	c.MemoryMB = 9999
	if vm.Config().MemoryMB == 9999 {
		t.Fatal("Config returned live reference")
	}
	if n := vm.RAM().NumPages(); n*mem.PageSize != 8<<20 {
		t.Fatalf("ram pages = %d", n)
	}
}

func TestStateString(t *testing.T) {
	cases := map[State]string{
		StateCreated:  "created",
		StateRunning:  "running",
		StatePaused:   "paused",
		StateIncoming: "paused (inmigrate)",
		StateShutOff:  "shut off",
		State(99):     "state(99)",
	}
	for s, want := range cases {
		if got := s.String(); got != want {
			t.Fatalf("State(%d) = %q, want %q", int(s), got, want)
		}
	}
}
