package experiments

import (
	"fmt"
	"time"

	"cloudskulk/internal/mem"
	"cloudskulk/internal/report"
	"cloudskulk/internal/shard"
	"cloudskulk/internal/vnet"
)

// MegaStormConfig sizes the sharded-cloud scale experiment: a grid of
// per-shard fleets joined by conservative synchronization, every guest a
// copy-on-write fork of a golden image, with a churn phase of guest
// write bursts, kernel tampering, and cross-shard delta migrations,
// closed by a full-fleet kernel integrity audit.
type MegaStormConfig struct {
	Shards        int
	HostsPerShard int
	GuestsPerHost int
	GuestMemMB    int64
	// MigrationsPerShard guests leave each shard for its ring neighbour
	// during churn (guests 0..M-1, each after a user-page write burst).
	MigrationsPerShard int
	// TampersPerShard guests get one kernel page flipped. Guest 0 — a
	// migrant — is always among them, so the audit must catch tampering
	// that crossed a shard boundary inside a migration delta.
	TampersPerShard int
	// BurstPages is the user-region write burst size per migrating guest.
	BurstPages int
}

// DefaultMegaStormConfig is the headline scale the sharding exists for:
// 64 shards × 16 hosts × 100 guests = 1,024 hosts carrying 102,400
// guests, all forked from 128 MB golden images (3.2 billion pages of
// logical guest memory), with 1,024 cross-shard migrations and 256
// tampered kernels to find.
func DefaultMegaStormConfig() MegaStormConfig {
	return MegaStormConfig{
		Shards:             64,
		HostsPerShard:      16,
		GuestsPerHost:      100,
		GuestMemMB:         128,
		MigrationsPerShard: 16,
		TampersPerShard:    4,
		BurstPages:         16,
	}
}

// QuickMegaStormConfig is a sub-second configuration for smoke tests and
// CI: 4 shards × 4 hosts × 8 guests.
func QuickMegaStormConfig() MegaStormConfig {
	return MegaStormConfig{
		Shards:             4,
		HostsPerShard:      4,
		GuestsPerHost:      8,
		GuestMemMB:         8,
		MigrationsPerShard: 2,
		TampersPerShard:    2,
		BurstPages:         8,
	}
}

// megastormInterShard is the link between shards: a 10 GbE-class
// backbone whose 2 ms latency is the world's conservative lookahead.
var megastormInterShard = vnet.LinkSpec{
	Bandwidth: 1250 << 20,
	Latency:   2 * time.Millisecond,
}

// MegaStormResult is the scale run's deterministic ledger.
type MegaStormResult struct {
	Config MegaStormConfig

	Hosts      int
	Guests     int // population after churn (== deployed: migration conserves guests)
	Deployed   int
	ForkSpawns uint64 // template forks: every deploy plus every migration arrival

	Migrations int
	DeltaPages int // pages shipped across shards, total
	Rounds     uint64
	Delivered  uint64

	// GoldenImageHash is the per-shard golden template's content hash —
	// a pure function of the run seed, so the rendered artefact provably
	// depends on it even when every count above is scale-invariant.
	GoldenImageHash uint64

	Tampered      int // kernels the scenario corrupted
	Flagged       int // kernels the audit flagged
	MissedTampers int // tampered but not flagged (want 0)
	FalseFlags    int // flagged but not tampered (want 0)
	// MigrantFlags counts flagged guests found on a shard other than
	// their birth shard — tampering that travelled inside a delta.
	MigrantFlags int

	// ProvisionVirtSec / ChurnVirtSec are the virtual durations of the
	// two phases.
	ProvisionVirtSec float64
	ChurnVirtSec     float64
}

// Render formats the ledger as an ASCII table.
func (r *MegaStormResult) Render() string {
	c := r.Config
	t := report.Table{
		Title: fmt.Sprintf("Megastorm: %s guests on %s hosts (%d shards, %d MB golden forks)",
			report.Comma(int64(r.Deployed)), report.Comma(int64(r.Hosts)), c.Shards, c.GuestMemMB),
		Headers: []string{"metric", "value"},
	}
	t.AddRow("hosts", report.Comma(int64(r.Hosts)))
	t.AddRow("guests deployed", report.Comma(int64(r.Deployed)))
	t.AddRow("guests after churn", report.Comma(int64(r.Guests)))
	t.AddRow("template forks", report.Comma(int64(r.ForkSpawns)))
	t.AddRow("golden image hash", fmt.Sprintf("%016x", r.GoldenImageHash))
	t.AddRow("cross-shard migrations", report.Comma(int64(r.Migrations)))
	t.AddRow("delta pages shipped", report.Comma(int64(r.DeltaPages)))
	if r.Migrations > 0 {
		t.AddRow("mean delta (pages/migration)", report.F2(float64(r.DeltaPages)/float64(r.Migrations)))
	}
	t.AddRow("sync rounds", report.Comma(int64(r.Rounds)))
	t.AddRow("messages exchanged", report.Comma(int64(r.Delivered)))
	t.AddRow("kernels tampered", report.Comma(int64(r.Tampered)))
	t.AddRow("kernels flagged", report.Comma(int64(r.Flagged)))
	t.AddRow("missed tampers", report.Comma(int64(r.MissedTampers)))
	t.AddRow("false flags", report.Comma(int64(r.FalseFlags)))
	t.AddRow("flags caught post-migration", report.Comma(int64(r.MigrantFlags)))
	t.AddRow("provision virtual time", fmt.Sprintf("%.2f s", r.ProvisionVirtSec))
	t.AddRow("churn virtual time", fmt.Sprintf("%.2f s", r.ChurnVirtSec))
	return t.Render()
}

// MegaStorm provisions cfg's grid through the per-shard control planes,
// runs the churn phase, audits every kernel, and aggregates the ledger.
// Zero-valued cfg fields take the defaults; o supplies the seed, the
// worker pool (which only changes wall-clock time — the artefact is
// byte-identical at any worker count), and the hv backend.
func MegaStorm(o Options, cfg MegaStormConfig) (*MegaStormResult, error) {
	o = o.withDefaults()
	d := DefaultMegaStormConfig()
	if cfg.Shards <= 0 {
		cfg.Shards = d.Shards
	}
	if cfg.HostsPerShard <= 0 {
		cfg.HostsPerShard = d.HostsPerShard
	}
	if cfg.GuestsPerHost <= 0 {
		cfg.GuestsPerHost = d.GuestsPerHost
	}
	if cfg.GuestMemMB <= 0 {
		cfg.GuestMemMB = d.GuestMemMB
	}
	if cfg.MigrationsPerShard <= 0 {
		cfg.MigrationsPerShard = d.MigrationsPerShard
	}
	if cfg.TampersPerShard <= 0 {
		cfg.TampersPerShard = d.TampersPerShard
	}
	if cfg.BurstPages <= 0 {
		cfg.BurstPages = d.BurstPages
	}
	perShard := cfg.HostsPerShard * cfg.GuestsPerHost
	if need := cfg.MigrationsPerShard + cfg.TampersPerShard; need > perShard {
		return nil, fmt.Errorf("megastorm: %d migrations + %d tampers exceed %d guests per shard",
			cfg.MigrationsPerShard, cfg.TampersPerShard, perShard)
	}
	if _, err := o.resolveBackend(); err != nil {
		return nil, err
	}
	g, err := shard.NewGrid(shard.GridConfig{
		Shards:        cfg.Shards,
		HostsPerShard: cfg.HostsPerShard,
		GuestsPerHost: cfg.GuestsPerHost,
		GuestMemMB:    cfg.GuestMemMB,
		Seed:          perRunSeed(o, "megastorm", 0),
		Workers:       o.Workers,
		InterShard:    megastormInterShard,
		Backend:       o.Backend,
	})
	if err != nil {
		return nil, err
	}

	base, err := g.Provision(megastormTenant)
	if err != nil {
		return nil, err
	}

	// Churn. Guests 0..M-1 of each shard burst-write their user region
	// and then migrate to the ring neighbour; the tamper set is guest 0
	// (so one corrupted kernel travels inside a migration delta) plus
	// M..M+T-2, which stay home. Offsets come from each shard's own
	// engine RNG — deterministic, but decorrelated across shards.
	expectTampered := make(map[string]bool)
	for i := 0; i < g.NumCells(); i++ {
		i := i
		cell := g.Cell(i)
		eng := cell.Shard.Engine()
		for k := 0; k < cfg.MigrationsPerShard; k++ {
			k := k
			gname := megastormTenant + "." + shard.GuestVMName(i, k)
			burstAt := base + 2*time.Millisecond + time.Duration(eng.RNG().Intn(20))*time.Millisecond
			eng.ScheduleAt(burstAt, "burst", func() {
				megastormBurst(cell, gname, cfg.BurstPages)
			})
			moveAt := burstAt + 25*time.Millisecond + time.Duration(eng.RNG().Intn(20))*time.Millisecond
			g.ScheduleMigration(i, (i+1)%g.NumCells(), gname, moveAt)
		}
		for j := 0; j < cfg.TampersPerShard; j++ {
			// Guest 0 (a migrant) plus the first T-1 stay-home guests.
			k := cfg.MigrationsPerShard + j - 1
			if j == 0 {
				k = 0
			}
			gname := megastormTenant + "." + shard.GuestVMName(i, k)
			expectTampered[gname] = true
			at := base + 5*time.Millisecond + time.Duration(eng.RNG().Intn(15))*time.Millisecond
			eng.ScheduleAt(at, "tamper", func() {
				megastormTamper(cell, gname)
			})
		}
	}
	end := base + 500*time.Millisecond
	if err := g.Run(end); err != nil {
		return nil, err
	}

	flagged, err := g.AuditKernels()
	if err != nil {
		return nil, err
	}

	st := g.Stats()
	res := &MegaStormResult{
		Config:           cfg,
		Hosts:            cfg.Shards * cfg.HostsPerShard,
		Guests:           st.Guests,
		Deployed:         st.Deployed,
		ForkSpawns:       st.ForkSpawns,
		GoldenImageHash:  g.Cell(0).Template.ContentHash(),
		Migrations:       st.MigrationsIn,
		DeltaPages:       st.DeltaPages,
		Rounds:           st.Rounds,
		Delivered:        st.Delivered,
		Tampered:         len(expectTampered),
		Flagged:          len(flagged),
		ProvisionVirtSec: base.Seconds(),
		ChurnVirtSec:     (end - base).Seconds(),
	}
	flaggedSet := make(map[string]bool, len(flagged))
	for _, gname := range flagged {
		flaggedSet[gname] = true
		if !expectTampered[gname] {
			res.FalseFlags++
		}
	}
	res.MissedTampers = res.Tampered - (res.Flagged - res.FalseFlags)
	// A flagged migrant was caught on a shard other than its birth shard:
	// its name records where it was born, its fleet records where it is.
	for i := 0; i < g.NumCells(); i++ {
		migrant := megastormTenant + "." + shard.GuestVMName(i, 0)
		if flaggedSet[migrant] && g.Cell((i+1)%g.NumCells()).Fleet.HasGuest(migrant) {
			res.MigrantFlags++
		}
	}
	return res, nil
}

const megastormTenant = "mega"

// megastormBurst writes a deterministic pattern into the guest's user
// region — dirty pages the migration delta must carry and the kernel
// audit must ignore.
func megastormBurst(cell *shard.Cell, gname string, pages int) {
	info, err := cell.Fleet.Lookup(gname)
	if err != nil {
		return // already migrated away under an unlucky jitter draw
	}
	ram := info.Outer.RAM()
	start := ram.NumPages() / 2
	for p := start; p < start+pages && p < ram.NumPages(); p++ {
		ram.Write(p, 0xBEEF000000000000|mem.Content(p)) //nolint:errcheck
	}
}

// megastormTamper flips one kernel-region page — the CloudSkulk-style
// integrity violation the closing audit exists to find.
func megastormTamper(cell *shard.Cell, gname string) {
	info, err := cell.Fleet.Lookup(gname)
	if err != nil {
		return
	}
	info.Outer.RAM().Write(5, 0xDEAD) //nolint:errcheck
}
