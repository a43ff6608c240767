package migrate

import (
	"errors"
	"testing"
	"testing/quick"
	"time"

	"cloudskulk/internal/kvm"
	"cloudskulk/internal/mem"
	"cloudskulk/internal/qemu"
	"cloudskulk/internal/sim"
	"cloudskulk/internal/vnet"
)

// testbed wires a host with a migration engine.
type testbed struct {
	eng *sim.Engine
	net *vnet.Network
	h   *kvm.Host
	me  *Engine
}

func newTestbed(t *testing.T, seed int64) *testbed {
	t.Helper()
	eng := sim.NewEngine(seed)
	network := vnet.New(eng)
	h, err := kvm.NewHost(eng, network, "host")
	if err != nil {
		t.Fatal(err)
	}
	me := NewEngine(eng, network)
	h.SetMigrationService(me)
	return &testbed{eng: eng, net: network, h: h, me: me}
}

func (tb *testbed) vm(t *testing.T, name string, memMB int64, incoming string) *qemu.VM {
	t.Helper()
	cfg := qemu.DefaultConfig(name)
	cfg.MemoryMB = memMB
	cfg.Incoming = incoming
	vm, err := tb.h.Hypervisor().CreateVM(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.h.Hypervisor().Launch(name); err != nil {
		t.Fatal(err)
	}
	return vm
}

// migrate runs one migration and then checks the memory bookkeeping of
// every guest on the host, nested ones included, so source and destination
// both pass CheckInvariants whatever the migration's outcome.
func (tb *testbed) migrate(t *testing.T, src *qemu.VM, uri string) error {
	t.Helper()
	err := tb.me.Migrate(src, uri)
	checkRAM(t, tb.h.Hypervisor())
	return err
}

func checkRAM(t *testing.T, hv *kvm.Hypervisor) {
	t.Helper()
	for _, vm := range hv.VMs() {
		if err := vm.RAM().CheckInvariants(); err != nil {
			t.Fatalf("after migration: %v", err)
		}
		if inner, ok := hv.Nested(vm.Name()); ok {
			checkRAM(t, inner)
		}
	}
}

var _ kvm.MigrationService = (*Engine)(nil)

func TestModeString(t *testing.T) {
	if PreCopy.String() != "pre-copy" || PostCopy.String() != "post-copy" {
		t.Fatal("mode names")
	}
	if Mode(9).String() != "mode(9)" {
		t.Fatal("unknown mode name")
	}
}

func TestPreCopyIdleMigration(t *testing.T) {
	tb := newTestbed(t, 1)
	src := tb.vm(t, "src", 64, "")
	dst := tb.vm(t, "dst", 64, "tcp:0.0.0.0:4444")

	before := src.RAM().Snapshot()
	if _, err := src.Monitor().Execute("migrate tcp:127.0.0.1:4444"); err != nil {
		t.Fatal(err)
	}
	checkRAM(t, tb.h.Hypervisor())
	res, ok := tb.me.LastResult()
	if !ok {
		t.Fatal("no result")
	}
	if !res.Converged {
		t.Fatal("idle migration did not converge")
	}
	if res.Iterations < 1 {
		t.Fatalf("iterations = %d", res.Iterations)
	}
	// Memory-equality invariant at handoff.
	after := dst.RAM().Snapshot()
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("page %d differs after migration", i)
		}
	}
	// Source paused, destination running.
	if src.State() != qemu.StatePaused {
		t.Fatalf("src state = %v", src.State())
	}
	if !dst.Running() {
		t.Fatalf("dst state = %v", dst.State())
	}
	// 64 MiB at 32 MiB/s: ~2s with zero-page compression making it less.
	if res.TotalTime <= 0 || res.TotalTime > 5*time.Second {
		t.Fatalf("total time = %v", res.TotalTime)
	}
	if res.Downtime > downtimeLimit+100*time.Millisecond {
		t.Fatalf("downtime = %v over budget", res.Downtime)
	}
	if res.Source != "src" || res.Destination != "dst" {
		t.Fatalf("result routing = %+v", res)
	}
	// info migrate reflects completion on both sides.
	for _, vm := range []*qemu.VM{src, dst} {
		if got := vm.MigrationStatus().Status; got != "completed" {
			t.Fatalf("%s info migrate status = %q", vm.Name(), got)
		}
	}
}

func TestZeroPageCompressionShortensIdleMigration(t *testing.T) {
	// An idle guest with many zero pages must migrate faster than
	// raw-size/bandwidth.
	tb := newTestbed(t, 1)
	src := tb.vm(t, "src", 64, "")
	tb.vm(t, "dst", 64, "tcp:0.0.0.0:4444")
	start := tb.eng.Now()
	if err := tb.migrate(t, src, "tcp:127.0.0.1:4444"); err != nil {
		t.Fatal(err)
	}
	elapsed := tb.eng.Now() - start
	rawTime := time.Duration(float64(64<<20) / float64(32<<20) * float64(time.Second))
	if elapsed >= rawTime {
		t.Fatalf("elapsed %v >= raw %v; zero pages not compressed", elapsed, rawTime)
	}
}

func TestPreCopyWithDirtyingWorkloadIterates(t *testing.T) {
	tb := newTestbed(t, 1)
	src := tb.vm(t, "src", 32, "")
	dst := tb.vm(t, "dst", 32, "tcp:0.0.0.0:4444")

	// A workload dirtying pages during migration: 30 random writes per
	// 10ms tick. Like a real guest, it stops writing when paused.
	rng := tb.eng.RNG()
	ticker := sim.NewTicker(tb.eng, 10*time.Millisecond, "dirtier", func() {
		if !src.Running() {
			return
		}
		for i := 0; i < 30; i++ {
			p := rng.Intn(src.RAM().NumPages())
			if _, err := src.RAM().Write(p, mem.Content(rng.Uint64()|1)); err != nil {
				t.Errorf("dirty write: %v", err)
			}
		}
	})
	defer ticker.Stop()

	if err := tb.migrate(t, src, "tcp:127.0.0.1:4444"); err != nil {
		t.Fatal(err)
	}
	ticker.Stop()
	res, _ := tb.me.LastResult()
	if res.Iterations < 2 {
		t.Fatalf("iterations = %d, want multiple rounds under dirtying", res.Iterations)
	}
	if !res.Converged {
		t.Fatal("moderate dirty rate should converge")
	}
	// Invariant: destination equals source at handoff (source is paused
	// now, ticker events after pause don't run because Migrate returned).
	if !mem.EqualContents(src.RAM(), dst.RAM()) {
		t.Fatal("memory differs after migration under load")
	}
}

func TestPreCopyNonConvergenceForcedStop(t *testing.T) {
	tb := newTestbed(t, 1)
	src := tb.vm(t, "src", 32, "")
	tb.vm(t, "dst", 32, "tcp:0.0.0.0:4444")

	tb.me.Tunables.MaxIterations = 5
	// Dirty faster than the link drains: whole RAM each tick.
	rng := tb.eng.RNG()
	ticker := sim.NewTicker(tb.eng, 5*time.Millisecond, "hogger", func() {
		if !src.Running() {
			return
		}
		for p := 0; p < src.RAM().NumPages(); p += 2 {
			if _, err := src.RAM().Write(p, mem.Content(rng.Uint64()|1)); err != nil {
				t.Errorf("write: %v", err)
			}
		}
	})
	defer ticker.Stop()

	if err := tb.migrate(t, src, "tcp:127.0.0.1:4444"); err != nil {
		t.Fatal(err)
	}
	res, _ := tb.me.LastResult()
	if res.Converged {
		t.Fatal("hog workload converged within 5 iterations?")
	}
	if res.Iterations < 5 {
		t.Fatalf("iterations = %d, want cap", res.Iterations)
	}
}

func TestMigrationErrors(t *testing.T) {
	tb := newTestbed(t, 1)
	src := tb.vm(t, "src", 16, "")

	// No incoming listener anywhere.
	if err := tb.migrate(t, src, "tcp:127.0.0.1:9999"); !errors.Is(err, ErrNoIncoming) {
		t.Fatalf("err = %v", err)
	}
	// Bad URI.
	if err := tb.migrate(t, src, "fd:3"); !errors.Is(err, qemu.ErrBadCommandLine) {
		t.Fatalf("err = %v", err)
	}
	// Config mismatch.
	tb.vm(t, "small", 8, "tcp:0.0.0.0:4444")
	if err := tb.migrate(t, src, "tcp:127.0.0.1:4444"); !errors.Is(err, ErrConfigMismatch) {
		t.Fatalf("err = %v", err)
	}
	if src.MigrationStatus().Status != "failed" {
		t.Fatalf("info migrate after failure = %q", src.MigrationStatus().Status)
	}
	// Unregistered VM.
	other := qemu.NewVM(tb.eng, qemu.DefaultConfig("x"), tb.h.Model, 1, "x.nic")
	if err := tb.migrate(t, other, "tcp:127.0.0.1:4444"); !errors.Is(err, ErrUnknownVM) {
		t.Fatalf("err = %v", err)
	}
	// Shut-off source.
	if err := src.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if err := tb.migrate(t, src, "tcp:127.0.0.1:4444"); !errors.Is(err, ErrSourceState) {
		t.Fatalf("err = %v", err)
	}
}

func TestDestinationNotInIncomingState(t *testing.T) {
	tb := newTestbed(t, 1)
	src := tb.vm(t, "src", 16, "")
	dst := tb.vm(t, "dst", 16, "tcp:0.0.0.0:4444")
	// Complete one migration; the listener is consumed.
	if err := tb.migrate(t, src, "tcp:127.0.0.1:4444"); err != nil {
		t.Fatal(err)
	}
	// A second attempt must fail: dst is running now.
	src2 := tb.vm(t, "src2", 16, "")
	if err := tb.migrate(t, src2, "tcp:127.0.0.1:4444"); !errors.Is(err, ErrNoIncoming) {
		t.Fatalf("err = %v", err)
	}
	_ = dst
}

func TestMigrationOverDownLinkFails(t *testing.T) {
	tb := newTestbed(t, 1)
	src := tb.vm(t, "src", 16, "")
	tb.vm(t, "dst", 16, "tcp:0.0.0.0:4444")
	tb.net.SetLink("host", "dst.nic", vnet.LinkSpec{Bandwidth: 1 << 20, Down: true})
	if err := tb.migrate(t, src, "tcp:127.0.0.1:4444"); !errors.Is(err, ErrAborted) {
		t.Fatalf("err = %v", err)
	}
}

// TestPostCopyOverDownLinkFails: post-copy checks the link before the
// handoff, so a down link aborts with the guest still on the source and
// the destination still waiting, never with two running copies.
func TestPostCopyOverDownLinkFails(t *testing.T) {
	tb := newTestbed(t, 1)
	tb.me.Tunables.Mode = PostCopy
	src := tb.vm(t, "src", 16, "")
	dst := tb.vm(t, "dst", 16, "tcp:0.0.0.0:4444")
	tb.net.SetLink("host", "dst.nic", vnet.LinkSpec{Bandwidth: 1 << 20, Down: true})
	if err := tb.migrate(t, src, "tcp:127.0.0.1:4444"); !errors.Is(err, ErrAborted) {
		t.Fatalf("err = %v", err)
	}
	if !src.Running() || dst.State() != qemu.StateIncoming {
		t.Fatalf("src=%v dst=%v, want the source running and the destination incoming", src.State(), dst.State())
	}
}

// TestMonitorSpeedLimitRespected pins that the monitor's migrate_set_speed
// is the one bandwidth cap: an idle pre-copy's total time scales with it
// below QEMU's 32 MiB/s default and above it alike.
func TestMonitorSpeedLimitRespected(t *testing.T) {
	run := func(speed string) time.Duration {
		tb := newTestbed(t, 1)
		src := tb.vm(t, "src", 64, "")
		tb.vm(t, "dst", 64, "tcp:0.0.0.0:4444")
		if speed != "" {
			if _, err := src.Monitor().Execute("migrate_set_speed " + speed); err != nil {
				t.Fatal(err)
			}
		}
		if err := tb.migrate(t, src, "tcp:127.0.0.1:4444"); err != nil {
			t.Fatal(err)
		}
		res, _ := tb.me.LastResult()
		return res.TotalTime
	}
	def := run("")
	for _, tt := range []struct {
		speed string
		want  float64 // TotalTime over the default's
	}{{"8m", 4}, {"16m", 2}, {"64m", 0.5}} {
		got := float64(run(tt.speed)) / float64(def)
		if got < tt.want*0.95 || got > tt.want*1.05 {
			t.Errorf("migrate_set_speed %s: total time %.3f× the 32m default's %v, want %.1f×", tt.speed, got, def, tt.want)
		}
	}
}

func TestNestedDestinationIsSlower(t *testing.T) {
	// L0-L0 vs L0-L1 (Fig 4's two series): same guest, destination on the
	// host vs nested inside another guest.
	elapsed := func(nested bool) time.Duration {
		tb := newTestbed(t, 1)
		src := tb.vm(t, "src", 32, "")
		if nested {
			tb.vm(t, "ritm", 64, "")
			inner, err := tb.h.Hypervisor().EnableNesting("ritm")
			if err != nil {
				t.Fatal(err)
			}
			cfg := qemu.DefaultConfig("nested")
			cfg.MemoryMB = 32
			cfg.Incoming = "tcp:0.0.0.0:4444"
			if _, err := inner.CreateVM(cfg); err != nil {
				t.Fatal(err)
			}
			if err := inner.Launch("nested"); err != nil {
				t.Fatal(err)
			}
			// The nested QEMU binds ritm.nic:4444 (its "host" is the
			// RITM guest); forward the physical host's port into it —
			// the paper's HOST PORT AAAA -> ROOTKIT PORT BBBB hop.
			if err := tb.net.AddForward(
				vnet.Addr{Endpoint: "host", Port: 4444},
				vnet.Addr{Endpoint: "ritm.nic", Port: 4444}); err != nil {
				t.Fatal(err)
			}
		} else {
			tb.vm(t, "dst", 32, "tcp:0.0.0.0:4444")
		}
		start := tb.eng.Now()
		if err := tb.migrate(t, src, "tcp:127.0.0.1:4444"); err != nil {
			t.Fatal(err)
		}
		return tb.eng.Now() - start
	}
	flat := elapsed(false)
	nested := elapsed(true)
	if nested <= flat {
		t.Fatalf("nested migration (%v) not slower than flat (%v)", nested, flat)
	}
	ratio := float64(nested) / float64(flat)
	if ratio < 1.05 || ratio > 1.4 {
		t.Fatalf("nested overhead ratio = %.2f, want ~1.15", ratio)
	}
}

func TestPostCopy(t *testing.T) {
	tb := newTestbed(t, 1)
	tb.me.Tunables.Mode = PostCopy
	src := tb.vm(t, "src", 32, "")
	dst := tb.vm(t, "dst", 32, "tcp:0.0.0.0:4444")
	if err := tb.migrate(t, src, "tcp:127.0.0.1:4444"); err != nil {
		t.Fatal(err)
	}
	res, _ := tb.me.LastResult()
	if res.Mode != PostCopy {
		t.Fatalf("mode = %v", res.Mode)
	}
	// Post-copy downtime is tiny (device state only).
	if res.Downtime > 50*time.Millisecond {
		t.Fatalf("post-copy downtime = %v", res.Downtime)
	}
	if !dst.Running() || src.State() != qemu.StatePaused {
		t.Fatal("handoff states wrong")
	}
	if !mem.EqualContents(src.RAM(), dst.RAM()) {
		t.Fatal("memory differs after post-copy")
	}
}

func TestReentrantMigrationRejected(t *testing.T) {
	tb := newTestbed(t, 1)
	src := tb.vm(t, "src", 16, "")
	tb.vm(t, "dst", 16, "tcp:0.0.0.0:4444")
	// Trigger a second Migrate from inside the first via a scheduled
	// event that fires during a transfer round.
	var innerErr error
	tb.eng.Schedule(time.Millisecond, "reenter", func() {
		innerErr = tb.me.Migrate(src, "tcp:127.0.0.1:4444")
	})
	if err := tb.migrate(t, src, "tcp:127.0.0.1:4444"); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(innerErr, ErrInProgress) {
		t.Fatalf("reentrant err = %v", innerErr)
	}
}

func TestRegisterIncomingConflict(t *testing.T) {
	tb := newTestbed(t, 1)
	a := tb.vm(t, "a", 16, "")
	b := tb.vm(t, "b", 16, "")
	addr := vnet.Addr{Endpoint: "x", Port: 1}
	if err := tb.me.RegisterIncoming(a, addr); err != nil {
		t.Fatal(err)
	}
	if err := tb.me.RegisterIncoming(a, addr); err != nil {
		t.Fatal("re-register same vm failed")
	}
	if err := tb.me.RegisterIncoming(b, addr); err == nil {
		t.Fatal("conflicting registration accepted")
	}
	tb.me.UnregisterIncoming(addr)
	if err := tb.me.RegisterIncoming(b, addr); err != nil {
		t.Fatal(err)
	}
}

func TestLastResult(t *testing.T) {
	tb := newTestbed(t, 1)
	if _, ok := tb.me.LastResult(); ok {
		t.Fatal("phantom result")
	}
	src := tb.vm(t, "src", 16, "")
	tb.vm(t, "dst", 16, "tcp:0.0.0.0:4444")
	if err := tb.migrate(t, src, "tcp:127.0.0.1:4444"); err != nil {
		t.Fatal(err)
	}
	if res, ok := tb.me.LastResult(); !ok || res.Source != "src" || res.Destination != "dst" {
		t.Fatalf("last result = %+v, %v", res, ok)
	}
}

// Property: for any seed and modest dirty rate, pre-copy preserves memory
// equality at handoff and ends with the destination running.
func TestMigrationInvariantProperty(t *testing.T) {
	f := func(seed int64, rate uint8) bool {
		tb := newTestbed(t, seed)
		src := tb.vm(t, "src", 8, "")
		dst := tb.vm(t, "dst", 8, "tcp:0.0.0.0:4444")
		rng := tb.eng.RNG()
		writes := int(rate) // 0..255 writes per tick
		tk := sim.NewTicker(tb.eng, 10*time.Millisecond, "w", func() {
			if !src.Running() {
				return
			}
			for i := 0; i < writes; i++ {
				p := rng.Intn(src.RAM().NumPages())
				if _, err := src.RAM().Write(p, mem.Content(rng.Uint64()|1)); err != nil {
					return
				}
			}
		})
		defer tk.Stop()
		if err := tb.migrate(t, src, "tcp:127.0.0.1:4444"); err != nil {
			return false
		}
		tk.Stop()
		return dst.Running() && mem.EqualContents(src.RAM(), dst.RAM())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
