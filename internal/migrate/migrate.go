// Package migrate implements QEMU-style live migration over the virtual
// network: the pre-copy algorithm the paper uses (iterative dirty-page
// rounds, a downtime-bounded stop-and-copy, zero-page compression, and the
// 32 MiB/s default bandwidth cap that dominates the paper's timings) plus
// post-copy as the alternative the paper notes the attack also works with.
package migrate

import (
	"errors"
	"fmt"
	"strconv"
	"time"

	"cloudskulk/internal/cpu"
	"cloudskulk/internal/mem"
	"cloudskulk/internal/qemu"
	"cloudskulk/internal/sim"
	"cloudskulk/internal/telemetry"
	"cloudskulk/internal/vnet"
)

// Errors callers match on.
var (
	ErrNoIncoming     = errors.New("migrate: no incoming VM at destination")
	ErrSourceState    = errors.New("migrate: source not migratable")
	ErrConfigMismatch = errors.New("migrate: destination config mismatch")
	ErrUnknownVM      = errors.New("migrate: vm not registered with engine")
	ErrInProgress     = errors.New("migrate: migration already in progress")
	ErrAborted        = errors.New("migrate: migration aborted")
	ErrCancelled      = errors.New("migrate: migration cancelled")
	ErrNotMigrating   = errors.New("migrate: no migration in progress")
)

// Mode selects the migration algorithm.
type Mode int

// Migration modes.
const (
	// PreCopy iteratively copies dirty pages while the guest runs, then
	// stops it for a short final pass (the paper's configuration).
	PreCopy Mode = iota + 1
	// PostCopy stops the guest immediately, resumes it at the
	// destination, and pulls pages on demand.
	PostCopy
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case PreCopy:
		return "pre-copy"
	case PostCopy:
		return "post-copy"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// Tunables mirror the QEMU migration parameters a caller changes: the
// mode, the round cap and the two capabilities. The rest are the
// constants below, and the bandwidth cap is the source monitor's
// migrate_set_speed value.
type Tunables struct {
	Mode Mode
	// MaxIterations force-stops pre-copy that is not converging
	// (workload dirtying faster than the link drains).
	MaxIterations int

	// XBZRLE enables delta compression for pages that are re-sent after
	// changing (QEMU's xbzrle capability): instead of a full page, only
	// the encoded delta crosses the wire.
	XBZRLE bool
	// AutoConverge enables QEMU's auto-converge capability: when
	// pre-copy is losing to the guest's dirty rate, the guest's vCPU is
	// throttled in escalating steps until the migration can finish.
	AutoConverge bool
}

// QEMU 2.9's fixed migration parameters on the paper's testbed.
const (
	// downtimeLimit is the maximum tolerated stop-and-copy pause;
	// pre-copy iterates until the remaining dirty set fits.
	downtimeLimit = 300 * time.Millisecond
	// zeroPageBytes is the on-wire cost of a compressed zero page.
	zeroPageBytes = 9
	// nestedReceiveOverhead is the fractional throughput loss when the
	// destination is a nested (L2) guest: every received page is written
	// through the L1 hypervisor's emulated EPT, costing exits.
	nestedReceiveOverhead = 0.15
	// xbzrleBytes is the modelled on-wire size of one delta-compressed
	// page.
	xbzrleBytes = 1024
	// autoConvergeInitial is the first throttle fraction, and
	// autoConvergeIncrement is added at each escalation (QEMU defaults:
	// 20% + 10% steps, capped at 99%).
	autoConvergeInitial   = 0.20
	autoConvergeIncrement = 0.10
)

// DefaultTunables match QEMU 2.9 defaults on the paper's testbed.
func DefaultTunables() Tunables {
	return Tunables{
		Mode:          PreCopy,
		MaxIterations: 1000,
	}
}

// Result summarizes one completed migration.
type Result struct {
	Mode             Mode
	TotalTime        time.Duration
	Downtime         time.Duration
	Iterations       int
	PagesTransferred int64
	BytesOnWire      int64
	Converged        bool
	// ThrottleSteps counts auto-converge escalations (0 when the
	// capability is off or never needed).
	ThrottleSteps int
	Source        string
	Destination   string
}

// Engine is the migration service: it tracks where VMs live on the network
// and which VMs are listening for incoming streams, and executes
// migrations in virtual time.
type Engine struct {
	eng *sim.Engine
	net *vnet.Network

	Tunables Tunables

	hostOf    map[*qemu.VM]string
	incoming  map[vnet.Addr]*qemu.VM
	active    map[*qemu.VM]bool
	cancelled map[*qemu.VM]bool
	last      Result
	completed bool // last holds a result

	telStarted   *telemetry.Counter
	telCompleted *telemetry.Counter
	telAborted   *telemetry.Counter
	telCancelled *telemetry.Counter
	telBytes     *telemetry.Counter
	telRounds    *telemetry.Histogram
	telDowntime  *telemetry.Histogram
	telPages     *telemetry.Histogram
	spans        *telemetry.SpanTracer
}

// NewEngine returns a migration engine with default tunables.
func NewEngine(eng *sim.Engine, network *vnet.Network) *Engine {
	return &Engine{
		eng:       eng,
		net:       network,
		Tunables:  DefaultTunables(),
		hostOf:    make(map[*qemu.VM]string),
		incoming:  make(map[vnet.Addr]*qemu.VM),
		active:    make(map[*qemu.VM]bool),
		cancelled: make(map[*qemu.VM]bool),
	}
}

// SetTelemetry attaches (or with nil detaches) a metrics registry:
// outcome counters plus rounds / downtime / transferred-pages histograms.
func (e *Engine) SetTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		e.telStarted, e.telCompleted, e.telAborted, e.telCancelled = nil, nil, nil, nil
		e.telBytes, e.telRounds, e.telDowntime, e.telPages = nil, nil, nil, nil
		return
	}
	e.telStarted = reg.Counter("migrate_started_total")
	e.telCompleted = reg.Counter("migrate_completed_total")
	e.telAborted = reg.Counter("migrate_aborted_total")
	e.telCancelled = reg.Counter("migrate_cancelled_total")
	e.telBytes = reg.Counter("migrate_wire_bytes_total")
	e.telRounds = reg.Histogram("migrate_rounds", telemetry.CountBuckets)
	e.telDowntime = reg.Histogram("migrate_downtime_us", telemetry.DurationBuckets)
	e.telPages = reg.Histogram("migrate_pages", telemetry.PageBuckets)
}

// SetSpans attaches a span tracer; each migration then records a span
// tree (migrate -> stream -> round-N, downtime). The tracer, like the
// sim engine, must not be shared across worker goroutines.
func (e *Engine) SetSpans(st *telemetry.SpanTracer) { e.spans = st }

// CancelMigration flags an in-flight migration of vm for cancellation; the
// engine aborts it at the next round boundary and resumes the source —
// the monitor's migrate_cancel.
func (e *Engine) CancelMigration(vm *qemu.VM) error {
	if !e.active[vm] {
		return fmt.Errorf("%w: %q", ErrNotMigrating, vm.Name())
	}
	e.cancelled[vm] = true
	return nil
}

var (
	_ qemu.MigrationCanceller = (*Engine)(nil)
	_ qemu.CapabilitySetter   = (*Engine)(nil)
)

// SetMigrationCapability toggles a QEMU-style migration capability. The
// engine's tunables are shared across migrations it runs, mirroring a
// management stack configuring the host's migration defaults.
func (e *Engine) SetMigrationCapability(_ *qemu.VM, name string, on bool) error {
	switch name {
	case "xbzrle":
		e.Tunables.XBZRLE = on
	case "auto-converge":
		e.Tunables.AutoConverge = on
	default:
		return fmt.Errorf("migrate: unknown capability %q", name)
	}
	return nil
}

// RegisterVM records the network endpoint hosting the VM's QEMU process.
func (e *Engine) RegisterVM(vm *qemu.VM, hostEndpoint string) {
	e.hostOf[vm] = hostEndpoint
}

// RegisterIncoming announces an -incoming listener.
func (e *Engine) RegisterIncoming(vm *qemu.VM, addr vnet.Addr) error {
	if cur, dup := e.incoming[addr]; dup && cur != vm {
		return fmt.Errorf("migrate: incoming address %s already registered", addr)
	}
	e.incoming[addr] = vm
	return nil
}

// UnregisterIncoming removes a listener.
func (e *Engine) UnregisterIncoming(addr vnet.Addr) {
	delete(e.incoming, addr)
}

// LastResult returns the most recent result, if any.
func (e *Engine) LastResult() (Result, bool) {
	return e.last, e.completed
}

// Migrate implements qemu.Migrator: the monitor's `migrate tcp:host:port`.
// The URI's host part is interpreted from the source QEMU process's
// vantage point: its hosting endpoint (127.0.0.1 on the host is the host
// itself). Forwarding chains are then resolved exactly like real
// connections, which is how the double port-forward reaches the nested VM.
func (e *Engine) Migrate(vm *qemu.VM, uri string) error {
	port, err := qemu.ParseIncomingPort(uri)
	if err != nil {
		return err
	}
	srcHost, ok := e.hostOf[vm]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownVM, vm.Name())
	}
	return e.MigrateTo(vm, vnet.Addr{Endpoint: srcHost, Port: port})
}

// MigrateTo migrates vm to the incoming VM reachable at target (after
// forward-chain resolution). It runs the whole migration in virtual time
// and returns when the destination has taken over.
func (e *Engine) MigrateTo(vm *qemu.VM, target vnet.Addr) error {
	if e.active[vm] {
		return fmt.Errorf("%w: %q", ErrInProgress, vm.Name())
	}
	if vm.State() != qemu.StateRunning && vm.State() != qemu.StatePaused {
		return fmt.Errorf("%w: %q is %v", ErrSourceState, vm.Name(), vm.State())
	}
	final, _, err := e.net.ResolveForward(target)
	if err != nil {
		return err
	}
	dst, ok := e.incoming[final]
	if !ok {
		return fmt.Errorf("%w: %s (resolved from %s)", ErrNoIncoming, final, target)
	}
	if dst.State() != qemu.StateIncoming {
		return fmt.Errorf("%w: destination %q is %v", ErrNoIncoming, dst.Name(), dst.State())
	}
	if err := vm.Config().MatchesForMigration(dst.Config()); err != nil {
		vm.SetMigrationInfo(qemu.MigrationInfo{Status: "failed"})
		return fmt.Errorf("%w: %w", ErrConfigMismatch, err)
	}

	e.active[vm] = true
	e.telStarted.Inc()
	span := e.spans.Start("migrate",
		telemetry.A("vm", vm.Name()),
		telemetry.A("dst", dst.Name()),
		telemetry.A("mode", e.Tunables.Mode.String()))
	// Hold a flow on the source-host<->destination-host link for the whole
	// migration so concurrent migrations sharing that link contend.
	release := e.net.AcquireFlow(e.hostOf[vm], dst.Endpoint())
	defer func() {
		release()
		delete(e.active, vm)
		delete(e.cancelled, vm)
	}()

	wasRunning := vm.State() == qemu.StateRunning
	var res Result
	switch e.Tunables.Mode {
	case PostCopy:
		res, err = e.runPostCopy(vm, dst)
	default:
		res, err = e.runPreCopy(vm, dst)
	}
	if err != nil {
		status := "failed"
		if errors.Is(err, ErrCancelled) {
			status = "cancelled"
			e.telCancelled.Inc()
		} else {
			e.telAborted.Inc()
		}
		span.Set("outcome", status)
		span.End()
		vm.SetMigrationInfo(qemu.MigrationInfo{Status: status})
		// An aborted migration hands the guest back: if we paused it
		// for stop-and-copy or throttling, it resumes.
		if wasRunning && vm.State() == qemu.StatePaused {
			if rerr := vm.Resume(); rerr != nil {
				return fmt.Errorf("%w (and resume failed: %w)", err, rerr)
			}
		}
		return err
	}
	res.Source = vm.Name()
	res.Destination = dst.Name()
	e.last, e.completed = res, true
	span.Set("outcome", "completed")
	span.End()
	e.telCompleted.Inc()
	e.telBytes.Add(uint64(res.BytesOnWire))
	e.telRounds.Observe(int64(res.Iterations))
	e.telDowntime.Observe(res.Downtime.Microseconds())
	e.telPages.Observe(res.PagesTransferred)
	return nil
}

// effectiveBandwidth computes the modelled transfer rate between source
// host and destination endpoint, honoring the source monitor's speed cap
// (migrate_set_speed; QEMU 2.9's 32 MiB/s default is the reason the
// paper's 1 GiB idle guest takes ~26 s to steal), the link (an explicit
// pair link, or the link between the endpoints' attachment roots — the
// host<->host path for cross-host migrations), contention from
// concurrent transfers sharing the link, and the nested-receive penalty.
// A link that is down aborts the migration with a typed error that
// matches both ErrAborted and vnet.ErrLinkDown.
func (e *Engine) effectiveBandwidth(vm, dst *qemu.VM) (int64, error) {
	srcHost := e.hostOf[vm]
	link := e.net.Link(srcHost, dst.Endpoint())
	if link.Down {
		return 0, fmt.Errorf("%w: %w: %s<->%s", ErrAborted, vnet.ErrLinkDown, srcHost, dst.Endpoint())
	}
	bw := vm.Monitor().SpeedLimit()
	// Concurrent migrations crossing the same physical link split its
	// capacity evenly; the fair share is recomputed at every round
	// boundary, so a storm's rounds slow down as peers join.
	linkBW := link.Bandwidth
	if flows := e.net.Flows(srcHost, dst.Endpoint()); flows > 1 && linkBW > 0 {
		linkBW /= int64(flows)
	}
	if linkBW > 0 && linkBW < bw {
		bw = linkBW
	}
	if dst.Level() >= cpu.L2 {
		bw = int64(float64(bw) / (1 + nestedReceiveOverhead))
	}
	if bw <= 0 {
		return 0, fmt.Errorf("%w: no bandwidth", ErrAborted)
	}
	return bw, nil
}

// pull runs one transfer: it fetches and clears the source's dirty log and
// copies those pages into the destination RAM, returning the page count
// and the on-wire bytes. Zero pages compress to a header; with XBZRLE
// enabled, pages being *re-sent* (marked in sent by an earlier round) cost
// only a delta.
func (e *Engine) pull(src, dst *mem.Space, sent *mem.Bitmap) (int, int64, error) {
	n, err := dst.PullDirty(src, sent)
	if err != nil {
		return 0, 0, err
	}
	full := n.Pages - n.Zeros
	bytes := int64(n.Zeros) * zeroPageBytes
	if e.Tunables.XBZRLE {
		full -= n.Resent
		bytes += int64(n.Resent) * xbzrleBytes
	}
	return n.Pages, bytes + int64(full)*mem.PageSize, nil
}

func (e *Engine) runPreCopy(vm, dst *qemu.VM) (Result, error) {
	start := e.eng.Now()
	src := vm.RAM()
	dram := dst.RAM()
	res := Result{Mode: PreCopy}

	totalMB := float64(vm.Config().MemoryMB)
	// Round 1 transfers all of RAM.
	src.MarkAllDirty()
	// Publish the active state up front: monitor queries fired while a
	// round is streaming (the engine keeps running events during RunFor)
	// must see an in-flight migration, not a stale pre-start view.
	vm.SetMigrationInfo(qemu.MigrationInfo{
		Status:      "active",
		RemainingMB: totalMB,
		TotalMB:     totalMB,
	})

	var sent *mem.Bitmap
	if e.Tunables.XBZRLE {
		sent = mem.NewBitmap(src.NumPages())
	}
	throttle := 0.0
	converged := false
	stream := e.spans.Start("stream")
	for res.Iterations < e.Tunables.MaxIterations {
		if e.cancelled[vm] {
			return res, fmt.Errorf("%w: %q", ErrCancelled, vm.Name())
		}
		bw, err := e.effectiveBandwidth(vm, dst)
		if err != nil {
			return res, err
		}
		// The copy moves no sim time, so the round's span can start
		// after it, once the page count is known.
		pages, wire, err := e.pull(src, dram, sent)
		if err != nil {
			return res, err
		}
		if pages == 0 {
			converged = true
			break
		}
		res.Iterations++
		round := e.spans.Start("round",
			telemetry.A("idx", strconv.Itoa(res.Iterations)),
			telemetry.A("pages", strconv.Itoa(pages)))
		res.PagesTransferred += int64(pages)
		res.BytesOnWire += wire
		dur := time.Duration(float64(wire) / float64(bw) * float64(time.Second))
		// The guest (and everything else on the engine) keeps running
		// while the round streams; its writes re-dirty pages. Under
		// auto-converge throttling the guest is stalled for part of
		// each round, suppressing its dirty rate.
		if throttle > 0 && vm.State() == qemu.StateRunning {
			stall := time.Duration(float64(dur) * throttle)
			if err := vm.Pause(); err != nil {
				return res, err
			}
			e.eng.RunFor(stall)
			if err := vm.Resume(); err != nil {
				return res, err
			}
			e.eng.RunFor(dur - stall)
		} else {
			e.eng.RunFor(dur)
		}

		round.End()
		vm.SetMigrationInfo(qemu.MigrationInfo{
			Status:        "active",
			TransferredMB: float64(res.BytesOnWire) / (1 << 20),
			RemainingMB:   float64(src.DirtyCount()) * mem.PageSize / (1 << 20),
			TotalMB:       totalMB,
			Iterations:    res.Iterations,
			TotalTime:     e.eng.Now() - start,
		})

		// Converged when the remaining dirty set fits in the downtime
		// budget.
		remaining := int64(src.DirtyCount()) * mem.PageSize
		if time.Duration(float64(remaining)/float64(bw)*float64(time.Second)) <= downtimeLimit {
			converged = true
			break
		}
		// Auto-converge: if this round re-dirtied at least as much as
		// it transferred, escalate the throttle. At maximum throttle
		// the guest is effectively stopped, so the migration proceeds
		// straight to stop-and-copy (trading downtime for completion,
		// exactly the capability's contract).
		if e.Tunables.AutoConverge && src.DirtyCount() >= pages*9/10 {
			if throttle == 0 {
				throttle = autoConvergeInitial
			} else {
				throttle += autoConvergeIncrement
			}
			res.ThrottleSteps++
			if throttle >= 0.99 {
				converged = true
				break
			}
		}
	}

	stream.End()

	// Stop-and-copy: pause the source, transfer the remaining dirty
	// pages, hand off.
	if vm.State() == qemu.StateRunning {
		if err := vm.Pause(); err != nil {
			return res, err
		}
	}
	downStart := e.eng.Now()
	down := e.spans.Start("downtime")
	bw, err := e.effectiveBandwidth(vm, dst)
	if err != nil {
		return res, err
	}
	pages, wire, err := e.pull(src, dram, sent)
	if err != nil {
		return res, err
	}
	if pages > 0 {
		res.Iterations++
	}
	res.PagesTransferred += int64(pages)
	res.BytesOnWire += wire
	e.eng.RunFor(time.Duration(float64(wire) / float64(bw) * float64(time.Second)))

	if err := e.handoff(vm, dst); err != nil {
		return res, err
	}
	down.End()
	res.Downtime = e.eng.Now() - downStart
	res.TotalTime = e.eng.Now() - start
	res.Converged = converged
	e.finishInfo(vm, dst, res, totalMB)
	return res, nil
}

func (e *Engine) runPostCopy(vm, dst *qemu.VM) (Result, error) {
	start := e.eng.Now()
	src := vm.RAM()
	dram := dst.RAM()
	res := Result{Mode: PostCopy}
	totalMB := float64(vm.Config().MemoryMB)

	// Background + demand-paged pull of all of RAM. Demand faults make
	// the effective rate worse than a sequential stream. A down link
	// fails here, before the handoff resumes the destination: after it
	// there would be no source left to hand the guest back to.
	bw, err := e.effectiveBandwidth(vm, dst)
	if err != nil {
		return res, err
	}
	bw = int64(float64(bw) * 0.9) // fault round trips steal ~10%

	// Stop the source immediately: downtime is just the device-state
	// switch.
	if vm.State() == qemu.StateRunning {
		if err := vm.Pause(); err != nil {
			return res, err
		}
	}
	downStart := e.eng.Now()
	down := e.spans.Start("downtime")
	if err := e.handoff(vm, dst); err != nil {
		return res, err
	}
	down.End()
	res.Downtime = e.eng.Now() - downStart

	src.MarkAllDirty()
	// Post-copy sends each page exactly once; XBZRLE has nothing to do.
	pages, wire, err := e.pull(src, dram, nil)
	if err != nil {
		return res, err
	}
	res.Iterations = 1
	res.PagesTransferred = int64(pages)
	res.BytesOnWire = wire
	pull := e.spans.Start("pull", telemetry.A("pages", strconv.Itoa(pages)))
	e.eng.RunFor(time.Duration(float64(wire) / float64(bw) * float64(time.Second)))
	pull.End()

	res.TotalTime = e.eng.Now() - start
	res.Converged = true
	e.finishInfo(vm, dst, res, totalMB)
	return res, nil
}

// handoff flips execution from source to destination: the destination
// leaves incoming state and starts running; the source stays paused (the
// attacker kills it moments later; a legitimate migration does the same).
func (e *Engine) handoff(vm, dst *qemu.VM) error {
	// Device-state transfer: a few milliseconds.
	e.eng.RunFor(5 * time.Millisecond)
	if err := dst.FinishIncoming(); err != nil {
		return err
	}
	if err := dst.Resume(); err != nil {
		return err
	}
	// The destination now owns the incoming address no longer.
	for addr, v := range e.incoming {
		if v == dst {
			delete(e.incoming, addr)
		}
	}
	return nil
}

func (e *Engine) finishInfo(vm, dst *qemu.VM, res Result, totalMB float64) {
	info := qemu.MigrationInfo{
		Status:        "completed",
		TransferredMB: float64(res.BytesOnWire) / (1 << 20),
		RemainingMB:   0,
		TotalMB:       totalMB,
		Downtime:      res.Downtime,
		TotalTime:     res.TotalTime,
		Iterations:    res.Iterations,
	}
	vm.SetMigrationInfo(info)
	dst.SetMigrationInfo(info)
}
