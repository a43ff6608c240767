package workload

import (
	"errors"
	"math"
	"testing"
	"time"

	"cloudskulk/internal/cpu"
	"cloudskulk/internal/kvm"
	"cloudskulk/internal/mem"
	"cloudskulk/internal/qemu"
	"cloudskulk/internal/sim"
	"cloudskulk/internal/vnet"
)

func hostCtx(t *testing.T, seed int64, level cpu.Level) *Context {
	t.Helper()
	eng := sim.NewEngine(seed)
	ctx := HostContext(eng, cpu.DefaultModel(), 64<<20)
	if level != cpu.L0 {
		ctx.VCPU = cpu.NewVCPU(eng, cpu.DefaultModel(), level)
	}
	return ctx
}

func vmCtx(t *testing.T, seed int64, memMB int64) (*kvm.Host, *Context) {
	t.Helper()
	eng := sim.NewEngine(seed)
	network := vnet.New(eng)
	h, err := kvm.NewHost(eng, network, "host")
	if err != nil {
		t.Fatal(err)
	}
	cfg := qemu.DefaultConfig("g")
	cfg.MemoryMB = memMB
	if _, err := h.Hypervisor().CreateVM(cfg); err != nil {
		t.Fatal(err)
	}
	if err := h.Hypervisor().Launch("g"); err != nil {
		t.Fatal(err)
	}
	vm, _ := h.Hypervisor().VM("g")
	return h, VMContext(vm)
}

func TestContextLevels(t *testing.T) {
	ctx := hostCtx(t, 1, cpu.L0)
	if ctx.Level() != cpu.L0 || !ctx.running() {
		t.Fatal("host context wrong")
	}
	_, vctx := vmCtx(t, 1, 8)
	if vctx.Level() != cpu.L1 {
		t.Fatalf("vm context level = %v", vctx.Level())
	}
	if !vctx.running() {
		t.Fatal("running VM context not running")
	}
	if err := vctx.VM.Pause(); err != nil {
		t.Fatal(err)
	}
	if vctx.running() {
		t.Fatal("paused VM context still running")
	}
}

func TestBackgroundDirtiesAtRate(t *testing.T) {
	_, ctx := vmCtx(t, 1, 64)
	p := Profile{
		Name:               "test",
		DirtyPagesPerSec:   1000,
		WorkingSetFraction: 0.5,
	}
	ctx.RAM.ClearDirty()
	b := StartBackground(ctx, p)
	ctx.Eng.RunFor(2 * time.Second)
	b.Stop()
	got := float64(b.PagesDirtied())
	if math.Abs(got-2000) > 100 {
		t.Fatalf("dirtied %v pages in 2s at 1000/s", got)
	}
	// Working-set bound: every dirtied page lies in the first half of RAM.
	// The dirtier writes non-zero contents, so pulling the dirty log into
	// a zeroed space marks exactly the dirtied pages non-zero there.
	ws := ctx.RAM.NumPages() / 2
	sink := mem.NewSpace("sink", int64(ctx.RAM.NumPages())*mem.PageSize)
	n, err := sink.PullDirty(ctx.RAM, nil)
	if err != nil || n.Pages == 0 || n.Zeros != 0 {
		t.Fatalf("pulled %+v, %v; want dirtied, non-zero pages", n, err)
	}
	for p := ws; p < sink.NumPages(); p++ {
		if sink.MustRead(p) != mem.ZeroPage {
			t.Fatalf("page %d outside working set dirtied", p)
		}
	}
}

func TestBackgroundStopsWhenVMPaused(t *testing.T) {
	_, ctx := vmCtx(t, 1, 16)
	b := StartBackground(ctx, Profile{Name: "x", DirtyPagesPerSec: 1000, WorkingSetFraction: 1})
	ctx.Eng.RunFor(time.Second)
	atPause := b.PagesDirtied()
	if atPause == 0 {
		t.Fatal("no dirtying before pause")
	}
	if err := ctx.VM.Pause(); err != nil {
		t.Fatal(err)
	}
	ctx.Eng.RunFor(time.Second)
	if b.PagesDirtied() != atPause {
		t.Fatal("background dirtied a paused guest")
	}
	if err := ctx.VM.Resume(); err != nil {
		t.Fatal(err)
	}
	ctx.Eng.RunFor(time.Second)
	if b.PagesDirtied() == atPause {
		t.Fatal("background did not resume with the guest")
	}
	b.Stop()
}

func TestBackgroundUpdatesBlockStats(t *testing.T) {
	_, ctx := vmCtx(t, 1, 16)
	b := StartBackground(ctx, FilebenchProfile())
	ctx.Eng.RunFor(time.Second)
	b.Stop()
	st, _ := ctx.VM.BlockStatsFor(0)
	if st.WrBytes == 0 || st.WrOps == 0 {
		t.Fatalf("blockstats = %+v", st)
	}
}

func TestProfiles(t *testing.T) {
	idle := IdleProfile()
	kc := KernelCompileProfile()
	fb := FilebenchProfile()
	if !(idle.DirtyPagesPerSec < fb.DirtyPagesPerSec && fb.DirtyPagesPerSec < kc.DirtyPagesPerSec) {
		t.Fatal("profile dirty-rate ordering wrong")
	}
	// The compile rate must sit just below the 32 MiB/s default migration
	// bandwidth (8192 pages/s) — the barely-converging regime.
	if kc.DirtyPagesPerSec >= 8192 || kc.DirtyPagesPerSec < 8192*0.8 {
		t.Fatalf("compile dirty rate %v outside the knee", kc.DirtyPagesPerSec)
	}
}

func TestKernelCompileLevelShape(t *testing.T) {
	// Fig. 2: L1/L0 large with ccache on L0 only; L2/L1 ~ +25.7%.
	run := func(level cpu.Level, ccache bool) time.Duration {
		ctx := hostCtx(t, 42, level)
		k := DefaultKernelCompile(ccache)
		k.Units = 200 // scaled down 10x for test speed
		d, err := k.Run(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	l0cc := run(cpu.L0, true)
	l1 := run(cpu.L1, false)
	l2 := run(cpu.L2, false)

	r10 := float64(l1) / float64(l0cc)
	if r10 < 2.8 || r10 > 4.8 {
		t.Fatalf("L1/L0(ccache) = %.2f, want ~3.8 (+280%%)", r10)
	}
	r21 := float64(l2) / float64(l1)
	if r21 < 1.20 || r21 > 1.32 {
		t.Fatalf("L2/L1 = %.3f, want ~1.257", r21)
	}
}

func TestKernelCompileErrors(t *testing.T) {
	ctx := hostCtx(t, 1, cpu.L0)
	ctx.RAM = nil
	if _, err := DefaultKernelCompile(false).Run(ctx); !errors.Is(err, ErrNoRAM) {
		t.Fatalf("err = %v", err)
	}
}

func TestKernelCompileDirtiesRAM(t *testing.T) {
	_, ctx := vmCtx(t, 1, 16)
	ctx.RAM.ClearDirty()
	k := KernelCompile{Units: 50}
	if _, err := k.Run(ctx); err != nil {
		t.Fatal(err)
	}
	if ctx.RAM.DirtyCount() == 0 {
		t.Fatal("compile did not dirty memory")
	}
	st, _ := ctx.VM.BlockStatsFor(0)
	if st.WrBytes == 0 {
		t.Fatal("compile did not write the disk")
	}
}

func TestNetperfLevelsNearlySame(t *testing.T) {
	// Fig. 3: all three levels within each other's noise.
	link := int64(2) << 30
	mean := func(level cpu.Level) float64 {
		var sum float64
		for seed := int64(0); seed < 10; seed++ {
			ctx := hostCtx(t, 100+seed, level)
			sum += DefaultNetperf().Run(ctx, link)
		}
		return sum / 10
	}
	l0, l1, l2 := mean(cpu.L0), mean(cpu.L1), mean(cpu.L2)
	for _, m := range []float64{l0, l1, l2} {
		if m < 1000 {
			t.Fatalf("throughput %v Mbps implausibly low", m)
		}
	}
	// Within 12% of each other (paper: stddev up to 10.32%).
	if d := math.Abs(l1-l0) / l0; d > 0.12 {
		t.Fatalf("L1 deviates %.1f%% from L0", d*100)
	}
	if d := math.Abs(l2-l1) / l1; d > 0.12 {
		t.Fatalf("L2 deviates %.1f%% from L1", d*100)
	}
}

func TestNetperfLinkBound(t *testing.T) {
	ctx := hostCtx(t, 1, cpu.L0)
	slow := DefaultNetperf().Run(ctx, 10<<20) // 10 MiB/s link
	// 10 MiB/s = ~84 Mbps; noise 1.11%.
	if slow < 75 || slow > 95 {
		t.Fatalf("link-bound throughput = %v Mbps", slow)
	}
}

func TestNetperfChargesTime(t *testing.T) {
	ctx := hostCtx(t, 1, cpu.L0)
	before := ctx.Eng.Now()
	DefaultNetperf().Run(ctx, 2<<30)
	elapsed := ctx.Eng.Now() - before
	// A 10-second stream should cost ~10s of virtual time.
	if elapsed < 5*time.Second || elapsed > 20*time.Second {
		t.Fatalf("netperf charged %v", elapsed)
	}
}

// BenchmarkBackgroundTick is one 20 ms tick of the Fig. 4 kernel-compile
// dirtier on a 1 GiB guest: about 139 random page contents drawn and
// written through the working set.
func BenchmarkBackgroundTick(b *testing.B) {
	eng := sim.NewEngine(1)
	ctx := HostContext(eng, cpu.DefaultModel(), 1<<30)
	bg := StartBackground(ctx, KernelCompileProfile())
	defer bg.Stop()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.RunFor(tickPeriod)
	}
}
