package core

import (
	"testing"

	"cloudskulk/internal/cpu"
	"cloudskulk/internal/mem"
)

func TestMirrorFileAndIntercept(t *testing.T) {
	tc := newTestCloud(t, 1)
	rk := install(t, tc, defaultTargeted())
	f := mem.GenerateFile(tc.eng.RNG(), "pushed.bin", 8)
	hook := rk.InterceptFilePushes()
	hook(f)
	if got := rk.RITM.RAM().FileResident(f, MirrorPage); got != 8 {
		t.Fatalf("mirrored residency = %d", got)
	}
	// Oversized pushes are dropped silently (best effort).
	huge := mem.GenerateFile(tc.eng.RNG(), "huge.bin", rk.RITM.RAM().NumPages()+1)
	hook(huge)
	// Direct MirrorFile errors on overflow.
	if err := rk.MirrorFile(huge, 0); err == nil {
		t.Fatal("oversized MirrorFile succeeded")
	}
}

func TestMirrorRange(t *testing.T) {
	tc := newTestCloud(t, 1)
	rk := install(t, tc, defaultTargeted())
	// Write known content into the victim, mirror it.
	for p := 3000; p < 3010; p++ {
		if _, err := rk.Victim.RAM().Write(p, mem.Content(p)); err != nil {
			t.Fatal(err)
		}
	}
	if err := rk.MirrorRange(3000, 10); err != nil {
		t.Fatal(err)
	}
	for p := 3000; p < 3010; p++ {
		if rk.RITM.RAM().MustRead(p) != mem.Content(p) {
			t.Fatalf("page %d not mirrored", p)
		}
	}
	if err := rk.MirrorRange(1<<30, 1); err == nil {
		t.Fatal("out-of-range mirror succeeded")
	}
}

func TestWriteTrackingSync(t *testing.T) {
	tc := newTestCloud(t, 1)
	rk := install(t, tc, defaultTargeted())
	ws := rk.StartWriteTrackingSync(2000, 4, 7000)
	if !rk.Victim.RAM().HasWriteHook() {
		t.Fatal("hook not installed")
	}
	// Writes inside the window propagate instantly.
	if _, err := rk.Victim.RAM().Write(2001, 0x1111); err != nil {
		t.Fatal(err)
	}
	if rk.RITM.RAM().MustRead(7001) != 0x1111 {
		t.Fatal("tracked write not propagated")
	}
	// Writes outside the window do not trap.
	if _, err := rk.Victim.RAM().Write(100, 0x2222); err != nil {
		t.Fatal(err)
	}
	if ws.Traps() != 1 {
		t.Fatalf("traps = %d, want 1", ws.Traps())
	}
	perTrap := cpu.DefaultModel().NestedFaultCost.Duration()
	if ws.TrapOverhead(perTrap) != perTrap {
		t.Fatalf("overhead = %v", ws.TrapOverhead(perTrap))
	}
	ws.Stop()
	if rk.Victim.RAM().HasWriteHook() {
		t.Fatal("hook survived Stop")
	}
	if _, err := rk.Victim.RAM().Write(2002, 0x3333); err != nil {
		t.Fatal(err)
	}
	if ws.Traps() != 1 {
		t.Fatal("trapped after Stop")
	}
}

func TestWriteTrackingSyncWholeRAM(t *testing.T) {
	tc := newTestCloud(t, 1)
	rk := install(t, tc, defaultTargeted())
	ws := rk.StartWriteTrackingSync(0, -1, 0)
	defer ws.Stop()
	if _, err := rk.Victim.RAM().Write(123, 0x9); err != nil {
		t.Fatal(err)
	}
	if _, err := rk.Victim.RAM().Write(4567, 0x8); err != nil {
		t.Fatal(err)
	}
	if ws.Traps() != 2 {
		t.Fatalf("traps = %d", ws.Traps())
	}
	if rk.RITM.RAM().MustRead(123) != 0x9 || rk.RITM.RAM().MustRead(4567) != 0x8 {
		t.Fatal("whole-RAM mirror incomplete")
	}
}
