// Package workload implements the guest activity the paper's evaluation
// exercises: the Linux-kernel-compile CPU/memory workload (Fig. 2), the
// Netperf TCP stream (Fig. 3), Filebench-style I/O, the lmbench 3.0
// micro-benchmark catalogue (Tables II-IV), and the background page-dirtying
// profiles that drive live-migration timing (Fig. 4).
package workload

import (
	"errors"
	"slices"
	"time"

	"cloudskulk/internal/cpu"
	"cloudskulk/internal/mem"
	"cloudskulk/internal/qemu"
	"cloudskulk/internal/sim"
)

// ErrNoRAM is returned by workloads that need guest memory when the
// context has none.
var ErrNoRAM = errors.New("workload: context has no RAM")

// Context is the execution environment a workload runs in: a vCPU (which
// fixes the virtualization level and cost model), memory, and optionally
// the VM it belongs to.
type Context struct {
	Eng  *sim.Engine
	VCPU *cpu.VCPU
	RAM  *mem.Space
	// VM is nil when running directly on the host (the L0 rows of the
	// paper's figures).
	VM  *qemu.VM
	Rng *sim.Rand
}

// HostContext builds a context for running directly on the host (L0), with
// a private process address space of memBytes.
func HostContext(eng *sim.Engine, model cpu.Model, memBytes int64) *Context {
	return &Context{
		Eng:  eng,
		VCPU: cpu.NewVCPU(eng, model, cpu.L0),
		RAM:  mem.NewSpace("host.proc", memBytes),
		Rng:  eng.RNG(),
	}
}

// VMContext builds a context for running inside a VM.
func VMContext(vm *qemu.VM) *Context {
	return &Context{
		Eng:  vm.Engine(),
		VCPU: vm.VCPU(),
		RAM:  vm.RAM(),
		VM:   vm,
		Rng:  vm.Engine().RNG(),
	}
}

// Level returns the virtualization level the context executes at.
func (c *Context) Level() cpu.Level { return c.VCPU.Level() }

// running reports whether the context's guest is executing (the host
// always is).
func (c *Context) running() bool {
	return c.VM == nil || c.VM.Running()
}

// Profile describes a background activity pattern used while a VM is being
// migrated: how fast it dirties memory and how it touches its disk. These
// are the three bars of the paper's Fig. 4.
type Profile struct {
	Name string
	// DirtyPagesPerSec is the page-dirtying rate. Compile-like loads
	// dirty just below the migration bandwidth, which is what makes
	// their migrations take minutes.
	DirtyPagesPerSec float64
	// WorkingSetFraction bounds the region of RAM the dirtying cycles
	// through sequentially (compilers stream through allocations; they
	// do not write uniformly random pages).
	WorkingSetFraction float64
	// DirtyRateJitter is the relative stddev applied to each tick's
	// dirty count.
	DirtyRateJitter float64
	// BlockWriteBytesPerSec drives `info blockstats` while running.
	BlockWriteBytesPerSec int64
}

// The paper's three migration workloads.
func IdleProfile() Profile {
	return Profile{
		Name:               "idle",
		DirtyPagesPerSec:   30, // background daemons only
		WorkingSetFraction: 1.0,
		DirtyRateJitter:    0.2,
	}
}

// KernelCompileProfile dirties pages at just under the default migration
// bandwidth (32 MiB/s = 8192 pages/s), the regime where pre-copy barely
// converges — the source of the paper's ~820 s compile-workload migration.
func KernelCompileProfile() Profile {
	return Profile{
		Name:                  "kernel-compile",
		DirtyPagesPerSec:      6950,
		WorkingSetFraction:    0.5,
		DirtyRateJitter:       0.02,
		BlockWriteBytesPerSec: 4 << 20,
	}
}

// FilebenchProfile models an I/O-intensive load: page-cache writes at a
// moderate rate.
func FilebenchProfile() Profile {
	return Profile{
		Name:                  "filebench",
		DirtyPagesPerSec:      1100,
		WorkingSetFraction:    0.1,
		DirtyRateJitter:       0.05,
		BlockWriteBytesPerSec: 24 << 20,
	}
}

// Background is a running background activity generator attached to a VM.
type Background struct {
	ticker *sim.Ticker
	pages  uint64
}

// tickPeriod is the background generator's resolution.
const tickPeriod = 20 * time.Millisecond

// StartBackground begins dirtying ctx's RAM according to the profile. Like
// a real guest, it goes quiet whenever the VM is not running (paused for
// stop-and-copy, shut off). Stop it when done.
func StartBackground(ctx *Context, p Profile) *Background {
	b := &Background{}
	wsPages := int(float64(ctx.RAM.NumPages()) * p.WorkingSetFraction)
	if wsPages < 1 {
		wsPages = 1
	}
	perTick := p.DirtyPagesPerSec * tickPeriod.Seconds()
	var cursor int
	var carry float64
	var buf []mem.Content
	b.ticker = sim.NewTicker(ctx.Eng, tickPeriod, "workload."+p.Name, func() {
		if !ctx.running() {
			return
		}
		n := perTick
		if p.DirtyRateJitter > 0 {
			n = ctx.Eng.Gauss(perTick, p.DirtyRateJitter)
		}
		n += carry
		count := int(n)
		carry = n - float64(count)
		// Draw the tick's contents first, in page order, then write them
		// as runs split where the cursor wraps around the working set.
		// Writes draw no randomness, so the stream is the same as drawing
		// one page at a time.
		buf = slices.Grow(buf[:0], count)[:count]
		sim.FillOdd(ctx.Rng, buf)
		for run := buf; len(run) > 0; {
			page := cursor % wsPages
			k := min(len(run), wsPages-page)
			if err := ctx.RAM.WriteRun(page, run[:k]); err != nil {
				return
			}
			cursor += k
			b.pages += uint64(k)
			run = run[k:]
		}
		if ctx.VM != nil && p.BlockWriteBytesPerSec > 0 {
			bytes := uint64(float64(p.BlockWriteBytesPerSec) * tickPeriod.Seconds())
			ctx.VM.RecordBlockIO(0, 0, bytes, 0, bytes/4096+1)
		}
	})
	return b
}

// PagesDirtied returns how many page writes the generator has issued.
func (b *Background) PagesDirtied() uint64 { return b.pages }

// Stop halts the generator.
func (b *Background) Stop() { b.ticker.Stop() }
