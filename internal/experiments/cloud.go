// Package experiments reproduces every table and figure of the paper's
// evaluation: Table I (CVE inventory), Fig. 2 (kernel compile), Fig. 3
// (netperf), Fig. 4 (live-migration timing), Tables II-IV (lmbench), and
// Figs. 5-6 (detection timing), plus the ablation sweeps DESIGN.md §4
// calls out. Each experiment builds its own seeded simulation, so results
// are deterministic per (seed, options).
//
// Sweeps decompose into independent (config × run) cells, each owning its
// own sim.Engine seeded by perRunSeed, and execute on the internal/runner
// worker pool: Options.Workers bounds the parallelism and the output is
// byte-identical to a serial run regardless of worker count.
package experiments

import (
	"time"

	"cloudskulk/internal/core"
	"cloudskulk/internal/hv"
	"cloudskulk/internal/kvm"
	"cloudskulk/internal/mem"
	"cloudskulk/internal/migrate"
	"cloudskulk/internal/qemu"
	"cloudskulk/internal/runner"
	"cloudskulk/internal/sim"
	"cloudskulk/internal/telemetry"
	"cloudskulk/internal/vnet"
	"cloudskulk/internal/workload"

	// Make every built-in backend resolvable by name for any consumer of
	// the experiments package.
	_ "cloudskulk/internal/hv/backends"
)

// Options scales the experiments. Defaults reproduce the paper's testbed;
// tests shrink memory and rep counts for speed.
type Options struct {
	// Seed drives all randomness.
	Seed int64
	// GuestMemMB is the victim VM size (paper: 1024).
	GuestMemMB int64
	// Runs is the per-cell repetition count (paper: 5).
	Runs int
	// CompileUnits is the kernel-compile size (paper-calibrated: 2000).
	CompileUnits int
	// LmbenchReps is the per-op repetition count for Tables II-IV.
	LmbenchReps int
	// DetectPages is the probe-file size for Figs. 5-6 (paper: 100).
	DetectPages int
	// KSMWait is the detector's merge window.
	KSMWait time.Duration
	// Workers bounds the sweep worker pool; <= 0 uses GOMAXPROCS. Cell
	// results are independent of this value — it only changes wall-clock
	// time.
	Workers int
	// OnProgress, when non-nil, receives live sweep progress (cells
	// done/total, rate, ETA) as cells complete.
	OnProgress func(runner.Progress)
	// Telemetry, when non-nil, is wired into every testbed an experiment
	// builds: all clouds and fleets share this one registry. Counters and
	// histograms are order-independent atomic sums, so exports stay
	// byte-identical for any Workers value.
	Telemetry *telemetry.Registry
	// Backend names the registered hv backend (cost profile) every testbed
	// is built on. Empty selects hv.DefaultName, the paper's i7-4790
	// calibration. Unknown names surface hv.ErrUnknownBackend from the
	// experiment entry points.
	Backend string
}

// DefaultOptions reproduces the paper's configuration.
func DefaultOptions() Options {
	return Options{
		Seed:         1,
		GuestMemMB:   1024,
		Runs:         5,
		CompileUnits: 2000,
		LmbenchReps:  10000,
		DetectPages:  100,
		KSMWait:      15 * time.Second,
	}
}

// TestOptions returns a scaled-down configuration for fast tests.
func TestOptions() Options {
	return Options{
		Seed:         1,
		GuestMemMB:   32,
		Runs:         3,
		CompileUnits: 120,
		LmbenchReps:  2000,
		DetectPages:  50,
		KSMWait:      10 * time.Second,
	}
}

func (o Options) withDefaults() Options {
	d := DefaultOptions()
	if o.GuestMemMB <= 0 {
		o.GuestMemMB = d.GuestMemMB
	}
	if o.Runs <= 0 {
		o.Runs = d.Runs
	}
	if o.CompileUnits <= 0 {
		o.CompileUnits = d.CompileUnits
	}
	if o.LmbenchReps <= 0 {
		o.LmbenchReps = d.LmbenchReps
	}
	if o.DetectPages <= 0 {
		o.DetectPages = d.DetectPages
	}
	if o.KSMWait <= 0 {
		o.KSMWait = d.KSMWait
	}
	return o
}

// runnerOptions projects the sweep-execution knobs for internal/runner.
func (o Options) runnerOptions() runner.Options {
	return runner.Options{Workers: o.Workers, OnProgress: o.OnProgress}
}

// resolveBackend maps Options.Backend to a registered hv backend,
// surfacing hv.ErrUnknownBackend for names nobody registered.
func (o Options) resolveBackend() (hv.Backend, error) {
	return hv.Lookup(o.Backend)
}

// mustBackend is resolveBackend for the table generators that have no
// error return; an unknown name panics with the same typed error text.
// cmd/experiments validates -backend up front, so this only fires on
// misuse of the library API.
func (o Options) mustBackend() hv.Backend {
	b, err := hv.Lookup(o.Backend)
	if err != nil {
		panic(err)
	}
	return b
}

// Cloud is one simulated testbed: a host with a migration engine and a
// victim VM, mirroring the paper's Fedora 22 / QEMU 2.9 machine.
type Cloud struct {
	Eng       *sim.Engine
	Net       *vnet.Network
	Host      *kvm.Host
	Migration *migrate.Engine
	Victim    *qemu.VM

	// Background is the victim's background activity generator when the
	// cloud was built with WithWorkloadProfile; nil otherwise.
	Background *workload.Background

	// VendorImage records the content the cloud vendor provisioned into
	// the guest (OS files resident in memory), and VendorImageAt where
	// it lives. The image-probe detection variant draws its probes from
	// here.
	VendorImage   *mem.File
	VendorImageAt int

	// Telemetry is the metrics registry wired through the stack when the
	// cloud was built with WithTelemetry; nil otherwise. Spans is the
	// matching per-cloud span tracer (migrations render as trees).
	Telemetry *telemetry.Registry
	Spans     *telemetry.SpanTracer
}

// cloudConfig is the option state NewCloud builds from.
type cloudConfig struct {
	guestMemMB int64
	ksmStarted bool
	profile    *workload.Profile
	tele       *telemetry.Registry
	backend    string
}

// CloudOption configures NewCloud.
type CloudOption func(*cloudConfig)

// WithGuestMemMB sets the victim VM's memory size (default 1024, the
// paper's 1 GiB guest).
func WithGuestMemMB(mb int64) CloudOption {
	return func(c *cloudConfig) { c.guestMemMB = mb }
}

// WithKSMStarted starts the host's KSM daemon as part of testbed
// construction, instead of leaving it stopped for the caller.
func WithKSMStarted() CloudOption {
	return func(c *cloudConfig) { c.ksmStarted = true }
}

// WithWorkloadProfile attaches a background guest-activity generator to
// the victim; the handle is exposed as Cloud.Background.
func WithWorkloadProfile(p workload.Profile) CloudOption {
	return func(c *cloudConfig) { c.profile = &p }
}

// WithTelemetry wires the registry into the testbed's host, network,
// migration engine, and every VM it creates, and attaches a span tracer
// to the migration engine. A nil registry is a no-op, so callers can pass
// Options.Telemetry through unconditionally.
func WithTelemetry(reg *telemetry.Registry) CloudOption {
	return func(c *cloudConfig) { c.tele = reg }
}

// WithBackend builds the testbed's host on the named hv backend (cost
// profile). The empty string selects hv.DefaultName; unknown names make
// NewCloud return hv.ErrUnknownBackend.
func WithBackend(name string) CloudOption {
	return func(c *cloudConfig) { c.backend = name }
}

// NewCloud builds a testbed with a running victim VM named "guest0"
// (SSH forwarded on 2222, monitor on 5555) and an idle co-tenant. The
// zero-option call reproduces the paper's testbed with a 1 GiB victim;
// the KSM daemon is created stopped unless WithKSMStarted.
func NewCloud(seed int64, opts ...CloudOption) (*Cloud, error) {
	cc := cloudConfig{guestMemMB: 1024}
	for _, opt := range opts {
		opt(&cc)
	}

	backend, err := hv.Lookup(cc.backend)
	if err != nil {
		return nil, err
	}
	eng := sim.NewEngine(seed)
	network := vnet.New(eng)
	host, err := kvm.NewHostWithBackend(eng, network, "host", backend)
	if err != nil {
		return nil, err
	}
	me := migrate.NewEngine(eng, network)
	host.SetMigrationService(me)

	var spans *telemetry.SpanTracer
	if cc.tele != nil {
		// Before CreateVM, so guest0 (and its vCPU) inherits the registry.
		host.SetTelemetry(cc.tele)
		network.SetTelemetry(cc.tele)
		me.SetTelemetry(cc.tele)
		spans = telemetry.NewSpanTracer(eng)
		me.SetSpans(spans)
	}

	cfg := qemu.DefaultConfig("guest0")
	cfg.MemoryMB = cc.guestMemMB
	cfg.MonitorPort = 5555
	cfg.NetDevs[0].HostFwds = []qemu.FwdRule{{HostPort: 2222, GuestPort: 22}}
	victim, err := host.Hypervisor().CreateVM(cfg)
	if err != nil {
		return nil, err
	}
	if err := host.Hypervisor().Launch("guest0"); err != nil {
		return nil, err
	}
	// Provision the vendor image: a region of known, unique content the
	// vendor can later probe against. A quarter of RAM, capped.
	imgPages := victim.RAM().NumPages() / 4
	if imgPages > 4096 {
		imgPages = 4096
	}
	if imgPages < 8 {
		imgPages = 8
	}
	imgAt := victim.RAM().NumPages() / 8
	image := mem.GenerateFile(eng.RNG(), "vendor-image", imgPages)
	if err := victim.RAM().LoadFile(image, imgAt); err != nil {
		return nil, err
	}
	c := &Cloud{
		Eng:           eng,
		Net:           network,
		Host:          host,
		Migration:     me,
		Victim:        victim,
		VendorImage:   image,
		VendorImageAt: imgAt,
		Telemetry:     cc.tele,
		Spans:         spans,
	}
	if cc.ksmStarted {
		host.KSM().Start()
	}
	if cc.profile != nil {
		c.Background = workload.StartBackground(workload.VMContext(victim), *cc.profile)
	}
	return c, nil
}

// InstallRootkit runs the CloudSkulk installer against the cloud's victim
// with the given config (zero value fields take the paper defaults).
func (c *Cloud) InstallRootkit(icfg core.InstallConfig) (*core.Rootkit, error) {
	if icfg.TargetName == "" {
		icfg.TargetName = c.Victim.Name()
	}
	if icfg.RITMName == "" {
		base := core.DefaultInstallConfig()
		base.TargetName = icfg.TargetName
		base.HideVMCS = icfg.HideVMCS
		icfg = base
	}
	return core.Installer{Host: c.Host, Migration: c.Migration}.Install(icfg)
}

// perRunSeed derives a distinct seed per repetition.
func perRunSeed(o Options, cell string, run int) int64 {
	h := int64(1469598103934665603)
	for _, b := range []byte(cell) {
		h ^= int64(b)
		h *= 1099511628211
	}
	return o.Seed*1_000_003 + h%997 + int64(run)*7919
}

// cellLabel builds a stable label for seeding and reporting.
func cellLabel(parts ...string) string {
	out := ""
	for i, p := range parts {
		if i > 0 {
			out += "/"
		}
		out += p
	}
	return out
}
