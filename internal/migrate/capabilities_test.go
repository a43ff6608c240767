package migrate

import (
	"errors"
	"testing"
	"time"

	"cloudskulk/internal/mem"
	"cloudskulk/internal/qemu"
	"cloudskulk/internal/sim"
	"cloudskulk/internal/vnet"
)

// dirtier attaches a guest-aware page-dirtying ticker.
func dirtier(tb *testbed, src *qemu.VM, writesPerTick int) *sim.Ticker {
	rng := tb.eng.RNG()
	return sim.NewTicker(tb.eng, 10*time.Millisecond, "dirtier", func() {
		if !src.Running() {
			return
		}
		for i := 0; i < writesPerTick; i++ {
			p := rng.Intn(src.RAM().NumPages())
			_, _ = src.RAM().Write(p, mem.Content(rng.Uint64()|1))
		}
	})
}

func TestXBZRLEReducesWireBytes(t *testing.T) {
	run := func(xbzrle bool) Result {
		tb := newTestbed(t, 1)
		tb.me.Tunables.XBZRLE = xbzrle
		src := tb.vm(t, "src", 32, "")
		tb.vm(t, "dst", 32, "tcp:0.0.0.0:4444")
		tk := dirtier(tb, src, 40)
		defer tk.Stop()
		if err := tb.migrate(t, src, "tcp:127.0.0.1:4444"); err != nil {
			t.Fatal(err)
		}
		res, _ := tb.me.LastResult()
		return res
	}
	plain := run(false)
	delta := run(true)
	if plain.Iterations < 2 {
		t.Fatalf("workload produced no resends (%d iterations)", plain.Iterations)
	}
	if delta.BytesOnWire >= plain.BytesOnWire {
		t.Fatalf("xbzrle wire %d >= plain %d", delta.BytesOnWire, plain.BytesOnWire)
	}
	// Memory equality still holds with compression.
	if !delta.Converged {
		t.Fatal("xbzrle run did not converge")
	}
}

func TestXBZRLEViaMonitorCapability(t *testing.T) {
	tb := newTestbed(t, 1)
	src := tb.vm(t, "src", 16, "")
	if _, err := src.Monitor().Execute("migrate_set_capability xbzrle on"); err != nil {
		t.Fatal(err)
	}
	if !tb.me.Tunables.XBZRLE {
		t.Fatal("capability did not stick")
	}
	if _, err := src.Monitor().Execute("migrate_set_capability xbzrle off"); err != nil {
		t.Fatal(err)
	}
	if tb.me.Tunables.XBZRLE {
		t.Fatal("capability off failed")
	}
	if _, err := src.Monitor().Execute("migrate_set_capability warp-drive on"); err == nil {
		t.Fatal("unknown capability accepted")
	}
	if _, err := src.Monitor().Execute("migrate_set_capability xbzrle maybe"); !errors.Is(err, qemu.ErrUnknownCommand) {
		t.Fatalf("bad toggle err = %v", err)
	}
}

func TestAutoConvergeRescuesHogWorkload(t *testing.T) {
	run := func(autoConverge bool) Result {
		tb := newTestbed(t, 1)
		tb.me.Tunables.AutoConverge = autoConverge
		tb.me.Tunables.MaxIterations = 40
		src := tb.vm(t, "src", 16, "")
		dst := tb.vm(t, "dst", 16, "tcp:0.0.0.0:4444")
		// Dirty every page constantly: hopeless without throttling.
		rng := tb.eng.RNG()
		tk := sim.NewTicker(tb.eng, 5*time.Millisecond, "hog", func() {
			if !src.Running() {
				return
			}
			for p := 0; p < src.RAM().NumPages(); p++ {
				_, _ = src.RAM().Write(p, mem.Content(rng.Uint64()|1))
			}
		})
		defer tk.Stop()
		if err := tb.migrate(t, src, "tcp:127.0.0.1:4444"); err != nil {
			t.Fatal(err)
		}
		tk.Stop()
		if !mem.EqualContents(src.RAM(), dst.RAM()) {
			t.Fatal("memory differs at handoff")
		}
		res, _ := tb.me.LastResult()
		return res
	}
	unthrottled := run(false)
	throttled := run(true)
	if unthrottled.Converged {
		t.Fatal("hog converged without auto-converge in 40 rounds")
	}
	if !throttled.Converged {
		t.Fatal("auto-converge failed to rescue the hog")
	}
	if throttled.ThrottleSteps == 0 {
		t.Fatal("no throttle escalations recorded")
	}
}

func TestAutoConvergeViaMonitor(t *testing.T) {
	tb := newTestbed(t, 1)
	src := tb.vm(t, "src", 16, "")
	if _, err := src.Monitor().Execute("migrate_set_capability auto-converge on"); err != nil {
		t.Fatal(err)
	}
	if !tb.me.Tunables.AutoConverge {
		t.Fatal("auto-converge not enabled")
	}
}

func TestMigrateCancelMidFlight(t *testing.T) {
	tb := newTestbed(t, 1)
	src := tb.vm(t, "src", 64, "")
	dst := tb.vm(t, "dst", 64, "tcp:0.0.0.0:4444")
	// Keep the migration iterating so cancellation has a window.
	tk := dirtier(tb, src, 60)
	defer tk.Stop()
	// The admin (or attacker) cancels one virtual second in.
	tb.eng.Schedule(time.Second, "cancel", func() {
		if err := tb.me.CancelMigration(src); err != nil {
			t.Errorf("cancel: %v", err)
		}
	})
	err := tb.migrate(t, src, "tcp:127.0.0.1:4444")
	if !errors.Is(err, ErrCancelled) {
		t.Fatalf("err = %v", err)
	}
	// Source keeps running; destination still waiting.
	if !src.Running() {
		t.Fatalf("source state = %v", src.State())
	}
	if dst.State() != qemu.StateIncoming {
		t.Fatalf("dst state = %v", dst.State())
	}
	if src.MigrationStatus().Status != "cancelled" {
		t.Fatalf("info migrate = %q", src.MigrationStatus().Status)
	}
	// A fresh migration afterwards succeeds.
	tk.Stop()
	if err := tb.migrate(t, src, "tcp:127.0.0.1:4444"); err != nil {
		t.Fatal(err)
	}
}

func TestMigrateCancelWithoutMigration(t *testing.T) {
	tb := newTestbed(t, 1)
	src := tb.vm(t, "src", 16, "")
	if err := tb.me.CancelMigration(src); !errors.Is(err, ErrNotMigrating) {
		t.Fatalf("err = %v", err)
	}
	if _, err := src.Monitor().Execute("migrate_cancel"); !errors.Is(err, ErrNotMigrating) {
		t.Fatalf("monitor err = %v", err)
	}
}

func TestMidMigrationLinkFailureResumesSource(t *testing.T) {
	tb := newTestbed(t, 1)
	src := tb.vm(t, "src", 64, "")
	tb.vm(t, "dst", 64, "tcp:0.0.0.0:4444")
	tk := dirtier(tb, src, 60)
	defer tk.Stop()
	// The link dies mid-migration.
	tb.eng.Schedule(500*time.Millisecond, "linkfail", func() {
		tb.net.SetLink("host", "dst.nic", vnet.LinkSpec{Bandwidth: 1, Down: true})
	})
	err := tb.migrate(t, src, "tcp:127.0.0.1:4444")
	if !errors.Is(err, ErrAborted) {
		t.Fatalf("err = %v", err)
	}
	if !src.Running() {
		t.Fatalf("source not handed back: %v", src.State())
	}
	if src.MigrationStatus().Status != "failed" {
		t.Fatalf("info migrate = %q", src.MigrationStatus().Status)
	}
}
