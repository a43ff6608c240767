package shard

import (
	"errors"
	"fmt"
	"time"

	"cloudskulk/internal/controlplane"
	"cloudskulk/internal/fleet"
	"cloudskulk/internal/mem"
	"cloudskulk/internal/runner"
	"cloudskulk/internal/sim"
	"cloudskulk/internal/vnet"
)

// planeSlots bounds each shard's control plane's concurrently executing
// jobs.
const planeSlots = 8

// GridConfig sizes a sharded cloud: Shards independent fleets, each with
// its own control plane and a frozen golden memory image every deploy
// forks copy-on-write.
type GridConfig struct {
	// Shards is the number of partitions (one fleet + plane per shard).
	Shards int
	// HostsPerShard and GuestsPerHost size each partition's fleet.
	HostsPerShard int
	GuestsPerHost int
	// GuestMemMB is the golden template (and therefore every guest) size.
	GuestMemMB int64
	// Seed drives everything: engines, template contents, churn jitter.
	Seed int64
	// Workers bounds the parallel advance pool (<= 1 = serial).
	Workers int
	// InterShard is the link between shards; its latency is the world's
	// lookahead and its bandwidth prices migration streams.
	InterShard vnet.LinkSpec
	// Backend selects the hypervisor backend for every host ("" = default).
	Backend string
	// KernelPages is the size of the audited kernel text region at the
	// front of every guest's memory (default 32 pages).
	KernelPages int
}

func (c GridConfig) guestsPerShard() int { return c.HostsPerShard * c.GuestsPerHost }

// migStream is the cross-shard migration payload: the guest's identity
// plus its delta against the golden template — the only pages worth
// moving when both sides hold the same frozen image.
type migStream struct {
	name  string
	pages []int
	data  []mem.Content
}

// Cell is one shard's slice of the cloud: a fleet, its control plane,
// its handle on the grid's golden image, and migration counters. All of
// it is driven solely by the cell's shard engine.
type Cell struct {
	Shard    *Shard
	Fleet    *fleet.Fleet
	Plane    *controlplane.Plane
	Template *mem.Template

	grid *Grid

	deployed   int
	migOut     int
	migIn      int
	deltaPages int
	err        error // first event-handler failure, surfaced by Run
}

// fail records the first asynchronous failure inside an event handler;
// Grid.Run reports it after the virtual-time run completes.
func (c *Cell) fail(err error) {
	if c.err == nil {
		c.err = err
	}
}

// Grid is a sharded cloud: a conservative-synchronization World whose
// shards each carry a full fleet + control-plane stack.
type Grid struct {
	cfg   GridConfig
	world *World
	cells []*Cell

	// cleanKernelHash is RangeHash(0, KernelPages) of a pristine fork of
	// the golden template — identical for every cell, the baseline the
	// integrity audit compares guests against.
	cleanKernelHash uint64
}

// NewGrid builds the sharded cloud. The golden image is built and frozen
// once; every shard holds its own template handle over it, so cross-shard
// migrations can ship deltas instead of full images.
func NewGrid(cfg GridConfig) (*Grid, error) {
	if cfg.Shards <= 0 || cfg.HostsPerShard <= 0 || cfg.GuestsPerHost <= 0 {
		return nil, fmt.Errorf("shard: grid needs positive shards/hosts/guests, got %d/%d/%d",
			cfg.Shards, cfg.HostsPerShard, cfg.GuestsPerHost)
	}
	if cfg.GuestMemMB <= 0 {
		return nil, fmt.Errorf("shard: grid needs positive guest memory, got %d MB", cfg.GuestMemMB)
	}
	if cfg.InterShard.Latency <= 0 || cfg.InterShard.Bandwidth <= 0 {
		return nil, fmt.Errorf("shard: inter-shard link needs latency and bandwidth, got %+v", cfg.InterShard)
	}
	if cfg.KernelPages <= 0 {
		cfg.KernelPages = 32
	}
	world, err := NewWorld(cfg.Shards, cfg.Seed, Options{
		Lookahead: cfg.InterShard.Latency,
		Workers:   cfg.Workers,
	})
	if err != nil {
		return nil, err
	}
	g := &Grid{cfg: cfg, world: world, cells: make([]*Cell, cfg.Shards)}
	golden := goldenTemplate(cfg)
	guests := cfg.guestsPerShard()
	for i := 0; i < cfg.Shards; i++ {
		cell, err := g.buildCell(i, guests, golden.Handle(fmt.Sprintf("golden-s%02d", i)))
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		g.cells[i] = cell
	}
	// The audit baseline forks a handle of its own, so probing never
	// skews the cells' template spawn counters.
	probe := mem.SpawnFrom("audit-probe", golden.Handle("golden-audit"))
	g.cleanKernelHash = probe.RangeHash(0, cfg.KernelPages)
	return g, nil
}

// goldenTemplate freezes the grid's golden image: a pure function of the
// grid seed (not the per-shard seed), so every shard reads byte-identical
// pages — the invariant delta migration relies on.
func goldenTemplate(cfg GridConfig) *mem.Template {
	golden := mem.NewSpace("golden", cfg.GuestMemMB<<20)
	golden.FillRandom(sim.NewRand(cfg.Seed^0x601de), 0.25)
	return mem.Freeze("golden", golden)
}

// buildCell assembles one shard's fleet + plane around tmpl, the cell's
// handle on the golden image. Only the cell's own engine forks from it,
// so its spawn counter needs no synchronization.
func (g *Grid) buildCell(i, guests int, tmpl *mem.Template) (*Cell, error) {
	cfg := g.cfg

	specs := make([]fleet.HostSpec, cfg.HostsPerShard)
	for j := range specs {
		specs[j] = fleet.HostSpec{
			Name: fmt.Sprintf("s%02dh%02d", i, j),
			// Room for the shard's own guests plus migration imbalance.
			MemMB: 2 * int64(cfg.GuestsPerHost) * cfg.GuestMemMB,
		}
	}
	opts := []fleet.Option{
		fleet.WithEngine(g.world.Shard(i).Engine()),
		fleet.WithHostSpecs(specs...),
	}
	if cfg.Backend != "" {
		opts = append(opts, fleet.WithBackend(cfg.Backend))
	}
	f, err := fleet.New(runner.CellSeed(cfg.Seed, i), opts...)
	if err != nil {
		return nil, err
	}
	plane := controlplane.New(f, controlplane.Config{
		MaxQueue: guests + 16,
		Slots:    planeSlots,
		Template: tmpl,
	})
	cell := &Cell{
		Shard:    g.world.Shard(i),
		Fleet:    f,
		Plane:    plane,
		Template: tmpl,
		grid:     g,
	}
	cell.Shard.OnDeliver(cell.onDeliver)
	return cell, nil
}

// NumCells returns the shard count.
func (g *Grid) NumCells() int { return len(g.cells) }

// Cell returns shard i's stack.
func (g *Grid) Cell(i int) *Cell { return g.cells[i] }

// GuestVMName is the canonical tenant-local VM name for guest k of shard
// i — shard-qualified so migrated guests never collide in the
// destination fleet's namespace.
func GuestVMName(shard, k int) string { return fmt.Sprintf("vm-s%02d-%04d", shard, k) }

// Provision creates the tenant on every plane and deploys the full guest
// complement through the async job queue — every deploy a copy-on-write
// fork of the golden template. Cells provision in parallel (no
// cross-shard traffic is possible yet), which diverges the shard clocks;
// AlignClocks parks them back on a common time before returning.
func (g *Grid) Provision(tenantName string) (time.Duration, error) {
	guests := g.cfg.guestsPerShard()
	quota := controlplane.Quota{
		MaxVMs:   guests + 16,
		MaxMemMB: int64(guests+16) * g.cfg.GuestMemMB,
		MaxJobs:  guests + 16,
	}
	_, err := runner.Map(len(g.cells), runner.Options{Workers: g.cfg.Workers},
		func(i int) (struct{}, error) {
			cell := g.cells[i]
			if err := cell.Plane.CreateTenant(tenantName, quota); err != nil {
				return struct{}{}, err
			}
			for k := 0; k < guests; k++ {
				_, err := cell.Plane.Submit(controlplane.Request{
					Op:     controlplane.OpDeploy,
					Tenant: tenantName,
					VM:     GuestVMName(i, k),
					MemMB:  g.cfg.GuestMemMB,
				})
				if err != nil {
					return struct{}{}, fmt.Errorf("deploy %d: %w", k, err)
				}
			}
			cell.Plane.Drain()
			cell.deployed = guests
			return struct{}{}, nil
		})
	if err != nil {
		return 0, err
	}
	return g.AlignClocks(), nil
}

// AlignClocks advances every shard to the maximum shard clock and returns
// it. Cross-shard sends are only safe while clocks run inside a common
// synchronization window, so callers must re-align after any phase (like
// Provision) that advances engines independently.
func (g *Grid) AlignClocks() time.Duration {
	var t time.Duration
	for _, cell := range g.cells {
		if now := cell.Shard.Engine().Now(); now > t {
			t = now
		}
	}
	for _, cell := range g.cells {
		cell.Shard.Engine().RunUntil(t)
	}
	return t
}

// Run advances the whole grid to virtual time t and surfaces the first
// failure recorded by any cell's event handlers.
func (g *Grid) Run(t time.Duration) error {
	if err := g.world.RunUntil(t); err != nil {
		return err
	}
	var errs []error
	for i, cell := range g.cells {
		if cell.err != nil {
			errs = append(errs, fmt.Errorf("shard %d: %w", i, cell.err))
		}
	}
	return errors.Join(errs...)
}

// ScheduleMigration arranges for guest gname to leave shard src at
// virtual time at and arrive on shard dst after the inter-shard transfer
// delay. The stream carries only the guest's delta against the golden
// template; the destination re-forks the template and replays the delta.
func (g *Grid) ScheduleMigration(src, dst int, gname string, at time.Duration) {
	cell := g.cells[src]
	cell.Shard.Engine().ScheduleAt(at, "xmigrate", func() {
		cell.migrateOut(dst, gname)
	})
}

// migrateOut diffs the guest against the golden image, stops it locally,
// and ships the delta. A guest forked from the image can differ from it
// only in the chunks it wrote, so the diff walks just those.
func (c *Cell) migrateOut(dst int, gname string) {
	info, err := c.Fleet.Lookup(gname)
	if err != nil {
		c.fail(fmt.Errorf("migrate out %s: %w", gname, err))
		return
	}
	stream := &migStream{name: gname}
	stream.pages, stream.data, err = info.Outer.RAM().DeltaFrom(c.Template, nil, nil)
	if err != nil {
		c.fail(fmt.Errorf("migrate out %s: %w", gname, err))
		return
	}
	if err := c.Fleet.StopGuest(gname); err != nil {
		c.fail(fmt.Errorf("migrate out %s: %w", gname, err))
		return
	}
	c.migOut++
	c.deltaPages += len(stream.pages)
	// Price the stream like vnet does: latency plus bytes over bandwidth.
	// The wire carries the delta pages plus a one-page manifest.
	bytes := int64(len(stream.pages)+1) * mem.PageSize
	link := c.grid.cfg.InterShard
	sec := float64(bytes) / float64(link.Bandwidth)
	delay := link.Latency + time.Duration(sec*float64(time.Second))
	c.Shard.Send(dst, delay, "xmigrate", stream)
}

// onDeliver handles an arriving migration stream: place the guest, fork
// the local (identical) template, replay the delta.
func (c *Cell) onDeliver(m Message) {
	stream, ok := m.Data.(*migStream)
	if !ok {
		c.fail(fmt.Errorf("shard %d: unexpected %q payload %T", c.Shard.ID(), m.Kind, m.Data))
		return
	}
	host, err := c.Fleet.PickHostFor(c.Template.SizeBytes()>>20, fleet.Policy{})
	if err != nil {
		c.fail(fmt.Errorf("migrate in %s: %w", stream.name, err))
		return
	}
	// StartGuestFrom statically reaches VM.Boot → Engine.Advance, but a
	// template fork takes the golden-image fast path, which returns
	// before the Advance: the clock never moves inside this handler.
	//detlint:allow horizon — template forks take the golden-image fast path in VM.Boot and return before Engine.Advance
	vm, err := c.Fleet.StartGuestFrom(host, stream.name, c.Template)
	if err != nil {
		c.fail(fmt.Errorf("migrate in %s: %w", stream.name, err))
		return
	}
	ram := vm.RAM()
	for idx, p := range stream.pages {
		if _, err := ram.Write(p, stream.data[idx]); err != nil {
			c.fail(fmt.Errorf("migrate in %s: %w", stream.name, err))
			return
		}
	}
	c.migIn++
}

// AuditKernels walks every guest of every cell and compares its kernel
// region hash against the pristine template's. It returns the
// shard-ID-ordered list of tampered guest names — the CloudSkulk-style
// integrity sweep the sharding exists to make affordable at scale. Cells
// are audited in parallel (each reads only its own fleet and the shared
// read-only golden image) and joined in shard order.
func (g *Grid) AuditKernels() ([]string, error) {
	perCell, err := runner.Map(len(g.cells), runner.Options{Workers: g.cfg.Workers},
		func(i int) ([]string, error) { return g.cells[i].auditKernels(g.cfg.KernelPages, g.cleanKernelHash) })
	if err != nil {
		return nil, err
	}
	var tampered []string
	for _, names := range perCell {
		tampered = append(tampered, names...)
	}
	return tampered, nil
}

// auditKernels returns the cell's guests, in name order, whose first
// kernelPages pages do not hash to clean.
func (c *Cell) auditKernels(kernelPages int, clean uint64) ([]string, error) {
	var tampered []string
	for _, gname := range c.Fleet.GuestNames() {
		info, err := c.Fleet.Lookup(gname)
		if err != nil {
			return nil, fmt.Errorf("audit %s: %w", gname, err)
		}
		if info.Outer.RAM().RangeHash(0, kernelPages) != clean {
			tampered = append(tampered, gname)
		}
	}
	return tampered, nil
}

// GridStats aggregates the deterministic counters an experiment artefact
// renders.
type GridStats struct {
	Guests        int    // currently running guests across all fleets
	Deployed      int    // guests provisioned through the planes
	ForkSpawns    uint64 // template forks (deploys + migration arrivals)
	MigrationsOut int
	MigrationsIn  int
	DeltaPages    int // pages shipped across shards (sum of stream sizes)
	Rounds        uint64
	Delivered     uint64
}

// Stats sums per-cell counters with the world's synchronization counters.
func (g *Grid) Stats() GridStats {
	st := GridStats{Rounds: g.world.Rounds(), Delivered: g.world.Delivered()}
	for _, cell := range g.cells {
		st.Guests += cell.Fleet.NumGuests()
		st.Deployed += cell.deployed
		st.ForkSpawns += cell.Template.Spawns()
		st.MigrationsOut += cell.migOut
		st.MigrationsIn += cell.migIn
		st.DeltaPages += cell.deltaPages
	}
	return st
}
