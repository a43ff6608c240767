package hostos

import (
	"errors"
	"testing"
	"time"

	"cloudskulk/internal/sim"
)

func newSys(t *testing.T) *System {
	t.Helper()
	return New(sim.NewEngine(1))
}

func TestSpawnAssignsFreshPIDs(t *testing.T) {
	s := newSys(t)
	a := s.Spawn("root", "qemu-system-x86_64 -m 1024 guest0.img")
	b := s.Spawn("root", "sshd")
	if a.PID == b.PID {
		t.Fatal("duplicate PIDs")
	}
	if a.PID <= 1000 {
		t.Fatalf("pid = %d, want > 1000", a.PID)
	}
	if n := len(s.PS()); n != 2 {
		t.Fatalf("nprocs = %d", n)
	}
}

func TestKill(t *testing.T) {
	s := newSys(t)
	p := s.Spawn("root", "qemu")
	if err := s.Kill(p.PID); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Process(p.PID); ok {
		t.Fatal("killed process still visible")
	}
	if err := s.Kill(p.PID); !errors.Is(err, ErrNoSuchProcess) {
		t.Fatalf("double kill err = %v", err)
	}
}

func TestPSSortedByPID(t *testing.T) {
	s := newSys(t)
	for i := 0; i < 10; i++ {
		s.Spawn("root", "proc")
	}
	ps := s.PS()
	if len(ps) != 10 {
		t.Fatalf("ps len = %d", len(ps))
	}
	for i := 1; i < len(ps); i++ {
		if ps[i].PID <= ps[i-1].PID {
			t.Fatal("ps not sorted by PID")
		}
	}
}

func TestFindByCommand(t *testing.T) {
	s := newSys(t)
	s.Spawn("root", "qemu-system-x86_64 -m 1024 -hda guest0.img")
	s.Spawn("root", "sshd -D")
	s.Spawn("alice", "qemu-system-x86_64 -m 2048 -hda web.img")
	got := s.FindByCommand("qemu-system")
	if len(got) != 2 {
		t.Fatalf("found %d, want 2", len(got))
	}
	if len(s.FindByCommand("xen")) != 0 {
		t.Fatal("false positive")
	}
}

func TestSwapPID(t *testing.T) {
	s := newSys(t)
	victim := s.Spawn("root", "qemu victim")
	ritm := s.Spawn("root", "qemu ritm")
	origPID := victim.PID
	// The attack sequence: kill the original, take its PID.
	if err := s.Kill(victim.PID); err != nil {
		t.Fatal(err)
	}
	if err := s.SwapPID(ritm.PID, origPID); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Process(origPID)
	if !ok {
		t.Fatal("swapped process missing")
	}
	if got.Command != "qemu ritm" {
		t.Fatalf("command = %q", got.Command)
	}
	if got.PID != origPID {
		t.Fatalf("struct PID = %d, want %d", got.PID, origPID)
	}
	if _, ok := s.Process(ritm.PID); ok && ritm.PID != origPID {
		t.Fatal("old PID still mapped")
	}
}

func TestSwapPIDErrors(t *testing.T) {
	s := newSys(t)
	a := s.Spawn("root", "a")
	b := s.Spawn("root", "b")
	if err := s.SwapPID(a.PID, b.PID); !errors.Is(err, ErrPIDInUse) {
		t.Fatalf("swap onto live pid err = %v", err)
	}
	if err := s.SwapPID(99999, 1); !errors.Is(err, ErrNoSuchProcess) {
		t.Fatalf("swap from dead pid err = %v", err)
	}
	if err := s.SwapPID(a.PID, a.PID); err != nil {
		t.Fatalf("self swap err = %v", err)
	}
}

func TestHistory(t *testing.T) {
	s := newSys(t)
	s.AppendHistory("qemu-system-x86_64 -m 1024 -hda guest0.img -netdev user,hostfwd=tcp::2222-:22")
	s.AppendHistory("ls -la")
	h := s.HistoryMatching("")
	if len(h) != 2 {
		t.Fatalf("history len = %d", len(h))
	}
	// Mutating the copy must not change the original.
	h[0] = "tampered"
	if s.history[0] == "tampered" {
		t.Fatal("HistoryMatching returned a live reference")
	}
	m := s.HistoryMatching("qemu")
	if len(m) != 1 {
		t.Fatalf("matching = %v", m)
	}
}

func TestRemoveHistoryMatching(t *testing.T) {
	s := newSys(t)
	s.AppendHistory("qemu-system -name guest0")
	s.AppendHistory("qemu-system -name guestX")
	s.AppendHistory("ls")
	s.AppendHistory("qemu-system -name guestX -incoming tcp")
	if got := s.RemoveHistoryMatching("guestX"); got != 2 {
		t.Fatalf("removed = %d", got)
	}
	h := s.history
	if len(h) != 2 || h[0] != "qemu-system -name guest0" || h[1] != "ls" {
		t.Fatalf("history = %v", h)
	}
	if got := s.RemoveHistoryMatching("guestX"); got != 0 {
		t.Fatalf("second removal = %d", got)
	}
}

// A process-table entry carries PID, owner, command line and start time,
// and nothing that names the VM a QEMU process backs.
func TestPSShowsOnlyPIDOwnerCommand(t *testing.T) {
	eng := sim.NewEngine(1)
	s := New(eng)
	eng.Advance(3 * time.Second)
	p := s.Spawn("root", "qemu-system-x86_64 -name guest0")
	ps := s.PS()
	want := Process{PID: p.PID, Owner: "root", Command: "qemu-system-x86_64 -name guest0", Started: 3 * time.Second}
	if len(ps) != 1 || *ps[0] != want {
		t.Fatalf("ps = %+v, want [%+v]", ps, want)
	}
}
