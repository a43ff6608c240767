// Package fleet scales the single-machine CloudSkulk testbed to a
// datacenter: N simulated hosts share one sim.Engine and one vnet fabric
// with explicit host<->host links (bandwidth, latency, failable), guests
// are tracked in a registry by logical name, and live migration moves
// them between hosts — the operational setting where the paper's defence
// actually runs (migrate a suspect guest to a trusted host, run the KSM
// timing protocol there, evacuate around failures).
package fleet

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"cloudskulk/internal/hv"
	"cloudskulk/internal/kvm"
	"cloudskulk/internal/mem"
	"cloudskulk/internal/migrate"

	// Make every built-in backend resolvable through WithBackend
	// without each caller importing the registry.
	_ "cloudskulk/internal/hv/backends"
	"cloudskulk/internal/qemu"
	"cloudskulk/internal/sim"
	"cloudskulk/internal/telemetry"
	"cloudskulk/internal/vnet"
)

// Errors callers match on.
var (
	ErrUnknownHost        = errors.New("fleet: unknown host")
	ErrUnknownGuest       = errors.New("fleet: unknown guest")
	ErrDuplicateGuest     = errors.New("fleet: guest already exists")
	ErrSameHost           = errors.New("fleet: guest already on that host")
	ErrInsufficientMemory = errors.New("fleet: destination lacks free memory")
	ErrNoPlacement        = errors.New("fleet: no host satisfies placement policy")
	ErrMigrationFailed    = errors.New("fleet: migration failed")
)

// Port layout: each guest gets a fleet-unique service and monitor port so
// migrations can land it on any host without colliding with residents,
// and every cross-host migration gets a fresh incoming port.
const (
	serviceBasePort   = 2200
	monitorBasePort   = 5600
	migrationBasePort = 41000
)

// DefaultHostMemMB is the guest-memory budget of a host without an
// explicit capacity.
const DefaultHostMemMB = 8192

// RetryPolicy is the fleet's bounded-exponential-backoff discipline:
// Attempts tries total, the k-th retry delayed by Backoff·2^k of virtual
// time. Migration retries use it directly; the control plane's job queue
// reuses the same policy for transient job failures, so operator-facing
// retry behaviour is uniform across layers.
type RetryPolicy struct {
	// Attempts is the total number of tries (1 = no retries).
	Attempts int
	// Backoff is the delay before the first retry; each further retry
	// doubles it.
	Backoff time.Duration
}

// Delay returns the virtual-time backoff before retry number retry
// (0-based): Backoff << retry.
func (rp RetryPolicy) Delay(retry int) time.Duration {
	return rp.Backoff << retry
}

// HostSpec describes one physical machine of the fleet.
type HostSpec struct {
	Name string
	// MemMB is the host's guest-memory budget (DefaultHostMemMB if 0).
	MemMB int64
	// Trusted marks the host as a clean-room machine the operator
	// migrates suspect guests onto before running detection.
	Trusted bool
}

// config is the option state New builds from.
type config struct {
	hosts    []HostSpec
	hostLink vnet.LinkSpec
	retries  int
	backoff  time.Duration
	backend  string
	tele     *telemetry.Registry
	teleSet  bool
	eng      *sim.Engine
}

// Option configures New.
type Option func(*config)

// WithHosts sizes the fleet to n uniformly-specced hosts named h00..hNN;
// the last max(1, n/4) are trusted.
func WithHosts(n int) Option {
	return func(c *config) {
		c.hosts = c.hosts[:0]
		trustedFrom := n - maxInt(1, n/4)
		for i := 0; i < n; i++ {
			c.hosts = append(c.hosts, HostSpec{
				Name:    fmt.Sprintf("h%02d", i),
				Trusted: i >= trustedFrom,
			})
		}
	}
}

// WithHostSpecs replaces the host list with an explicit set of specs.
func WithHostSpecs(specs ...HostSpec) Option {
	return func(c *config) { c.hosts = append(c.hosts[:0], specs...) }
}

// WithHostLink sets the link spec installed between every host pair
// (default: a 1 GbE-class 125 MiB/s, 200 µs datacenter link).
func WithHostLink(spec vnet.LinkSpec) Option {
	return func(c *config) { c.hostLink = spec }
}

// WithRetry sets how often a migration aborted by the network is retried
// and the initial backoff between attempts (doubling per retry). Defaults:
// 3 attempts, 2 s.
func WithRetry(attempts int, backoff time.Duration) Option {
	return func(c *config) { c.retries, c.backoff = attempts, backoff }
}

// WithBackend selects the hypervisor backend every fleet host runs
// (default: the paper's kvm-i7-4790 profile). Unknown names surface as
// hv.ErrUnknownBackend from New, listing the registered backends.
func WithBackend(name string) Option {
	return func(c *config) { c.backend = name }
}

// WithEngine runs the fleet on a caller-owned simulation engine instead of
// a freshly seeded private one (the seed argument to New is then unused).
// The shard layer uses this to give every shard's fleet that shard's
// engine, so one engine drives exactly one shard's virtual clock.
func WithEngine(eng *sim.Engine) Option {
	return func(c *config) { c.eng = eng }
}

// WithTelemetry injects a metrics registry — typically one shared across
// an experiment sweep's cells, whose counter sums stay deterministic for
// any worker count. Passing nil disables metrics entirely. Without this
// option every fleet gets its own private registry.
func WithTelemetry(reg *telemetry.Registry) Option {
	return func(c *config) { c.tele, c.teleSet = reg, true }
}

// guest is one registry entry, keyed by the guest's name. The qemu.VM
// instances backing a guest change across migrations (and infections), so
// the record stores only stable facts; Lookup resolves the current
// instances through the host-side forward chain, exactly like an operator
// would.
type guest struct {
	host        string
	memMB       int64
	servicePort int
}

// host is one machine of the fleet: its hypervisor stack, its spec, and
// the logical footprint of the guests placed on it — a running counter
// maintained at placement, stop and migration, so FreeMemMB is one lookup.
type host struct {
	*kvm.Host
	spec   HostSpec
	usedMB int64
}

// Fleet is a set of simulated hosts sharing one engine, one network
// fabric, and one migration engine.
type Fleet struct {
	eng   *sim.Engine
	net   *vnet.Network
	mig   *migrate.Engine
	hosts map[string]*host
	order []*host // sorted by name
	// names counts every host's L0 instance names — registered guests,
	// migration clones and interposed stacks alike.
	names *kvm.Names

	guests  map[string]*guest
	nextIdx int // fleet-wide guest counter (port layout)
	gen     int // migration generation counter (instance names, ports)

	retry RetryPolicy

	tele  *telemetry.Registry
	spans *telemetry.SpanTracer
}

// New builds a fleet on a fresh seeded engine. Without options it has 4
// hosts (h00..h03, h03 trusted) joined by a full mesh of default
// datacenter links.
func New(seed int64, opts ...Option) (*Fleet, error) {
	c := config{
		hostLink: vnet.LinkSpec{Bandwidth: 125 << 20, Latency: 200 * time.Microsecond},
		retries:  3,
		backoff:  2 * time.Second,
	}
	WithHosts(4)(&c)
	for _, opt := range opts {
		opt(&c)
	}
	if len(c.hosts) == 0 {
		return nil, errors.New("fleet: no hosts")
	}
	if c.retries < 1 {
		c.retries = 1
	}

	// Resolve the backend up front so a typo fails the constructor with
	// hv.ErrUnknownBackend instead of surfacing mid-simulation.
	backend, err := hv.Lookup(c.backend)
	if err != nil {
		return nil, fmt.Errorf("fleet: %w", err)
	}

	eng := c.eng
	if eng == nil {
		eng = sim.NewEngine(seed)
	}
	network := vnet.New(eng)
	mig := migrate.NewEngine(eng, network)
	tele := c.tele
	if !c.teleSet {
		tele = telemetry.NewRegistry()
	}
	spans := telemetry.NewSpanTracer(eng)
	network.SetTelemetry(tele)
	mig.SetTelemetry(tele)
	mig.SetSpans(spans)

	f := &Fleet{
		eng:    eng,
		net:    network,
		mig:    mig,
		hosts:  make(map[string]*host, len(c.hosts)),
		names:  kvm.NewNames(),
		guests: make(map[string]*guest),
		retry:  RetryPolicy{Attempts: c.retries, Backoff: c.backoff},
		tele:   tele,
		spans:  spans,
	}
	for _, spec := range c.hosts {
		if spec.MemMB <= 0 {
			spec.MemMB = DefaultHostMemMB
		}
		if _, dup := f.hosts[spec.Name]; dup {
			return nil, fmt.Errorf("fleet: duplicate host %q", spec.Name)
		}
		h, err := kvm.NewHostWithBackend(eng, network, spec.Name, backend)
		if err != nil {
			return nil, err
		}
		h.SetMigrationService(mig)
		h.SetTelemetry(tele)
		h.ShareNames(f.names)
		rec := &host{Host: h, spec: spec}
		f.hosts[spec.Name] = rec
		f.order = append(f.order, rec)
	}
	sort.Slice(f.order, func(i, j int) bool { return f.order[i].spec.Name < f.order[j].spec.Name })
	// Full mesh of explicit host-pair links. Guest NICs attach to their
	// host (kvm.CreateVM), so these links govern all cross-host traffic
	// while intra-host paths keep the fabric's default loopback link.
	for i, a := range f.order {
		for _, b := range f.order[i+1:] {
			network.SetLink(a.spec.Name, b.spec.Name, c.hostLink)
		}
	}
	return f, nil
}

// Engine returns the shared simulation engine.
func (f *Fleet) Engine() *sim.Engine { return f.eng }

// Migration returns the shared live-migration engine.
func (f *Fleet) Migration() *migrate.Engine { return f.mig }

// Telemetry returns the fleet's metrics registry (nil when disabled via
// WithTelemetry(nil)).
func (f *Fleet) Telemetry() *telemetry.Registry { return f.tele }

// Spans returns the fleet's span tracer; fleet-level operations and the
// migration engine record their trees here.
func (f *Fleet) Spans() *telemetry.SpanTracer { return f.spans }

// Retry returns the fleet's configured retry policy (WithRetry), so
// higher layers — the control plane's job queue — can apply the same
// backoff discipline to their own transient failures.
func (f *Fleet) Retry() RetryPolicy { return f.retry }

// Host returns a host by name.
func (f *Fleet) Host(name string) (*kvm.Host, error) {
	h, ok := f.hosts[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownHost, name)
	}
	return h.Host, nil
}

// HostNames returns all host names, sorted.
func (f *Fleet) HostNames() []string {
	out := make([]string, len(f.order))
	for i, h := range f.order {
		out[i] = h.spec.Name
	}
	return out
}

// Trusted reports whether the named host carries the trusted tag.
func (f *Fleet) Trusted(name string) bool {
	h, ok := f.hosts[name]
	return ok && h.spec.Trusted
}

// TrustedHosts returns the trusted host names, sorted.
func (f *Fleet) TrustedHosts() []string {
	var out []string
	for _, h := range f.order {
		if h.spec.Trusted {
			out = append(out, h.spec.Name)
		}
	}
	return out
}

// NumGuests returns how many guests are registered.
func (f *Fleet) NumGuests() int { return len(f.guests) }

// HasGuest reports whether a guest is registered under name.
func (f *Fleet) HasGuest(name string) bool {
	_, ok := f.guests[name]
	return ok
}

// GuestNames returns all registered guest names, sorted.
func (f *Fleet) GuestNames() []string {
	out := make([]string, 0, len(f.guests))
	for name := range f.guests {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// GuestsOn returns the guests placed on a host, sorted.
func (f *Fleet) GuestsOn(host string) []string {
	var out []string
	for name, g := range f.guests {
		if g.host == host {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// FreeMemMB returns a host's guest-memory budget minus the logical
// footprint of the guests placed on it (0 for an unknown host). The
// footprint is a running per-host counter, not a scan of the registry,
// because the placement scheduler reads it per candidate host per
// decision, which at megastorm scale (100k deploys) made provisioning
// quadratic in the guest count.
func (f *Fleet) FreeMemMB(host string) int64 {
	h, ok := f.hosts[host]
	if !ok {
		return 0
	}
	return h.free()
}

// free returns the host's guest-memory budget left.
func (h *host) free() int64 { return h.spec.MemMB - h.usedMB }

// StartGuest creates and boots a guest on the named host, assigning it a
// fleet-unique service port (SSH forward) and monitor port.
// Guest names are fleet-wide: a name already registered — or already
// backing a VM instance on *any* host, including migration clones and
// interposed stacks that never appear in the registry — is rejected with
// ErrDuplicateGuest naming the occupying host, instead of leaking a
// hypervisor- or fabric-level collision from whichever host it happens
// to clash on.
func (f *Fleet) StartGuest(host, name string, memMB int64) (*qemu.VM, error) {
	return f.startGuest(host, name, memMB, nil)
}

// StartGuestFrom creates and boots a guest forked copy-on-write from a
// frozen golden memory image (mem.Freeze). The guest's memory size is the
// template's; creation and boot cost O(1) in that size — the fork shares
// page state with the template until first write. This is the mass-
// provisioning path the megastorm experiment exercises at 100k guests.
func (f *Fleet) StartGuestFrom(host, name string, tmpl *mem.Template) (*qemu.VM, error) {
	if tmpl == nil {
		return nil, fmt.Errorf("fleet: guest %q: nil template", name)
	}
	return f.startGuest(host, name, tmpl.SizeBytes()>>20, tmpl)
}

func (f *Fleet) startGuest(hostName, name string, memMB int64, tmpl *mem.Template) (*qemu.VM, error) {
	h, ok := f.hosts[hostName]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownHost, hostName)
	}
	if g, dup := f.guests[name]; dup {
		return nil, fmt.Errorf("%w: %q already on host %q", ErrDuplicateGuest, name, g.host)
	}
	// The shared name index answers for every host at once; only a hit
	// pays for the scan that names the occupying host.
	if f.names.Has(name) {
		for _, other := range f.order {
			if _, exists := other.Hypervisor().VM(name); exists {
				return nil, fmt.Errorf("%w: %q already backed by an instance on host %q",
					ErrDuplicateGuest, name, other.spec.Name)
			}
		}
	}
	if memMB <= 0 {
		return nil, fmt.Errorf("fleet: guest %q needs memory > 0", name)
	}
	if h.free() < memMB {
		return nil, fmt.Errorf("%w: %q on %q", ErrInsufficientMemory, name, hostName)
	}
	idx := f.nextIdx
	cfg := qemu.DefaultConfig(name)
	cfg.MemoryMB = memMB
	cfg.MemTemplate = tmpl
	cfg.MonitorPort = monitorBasePort + idx
	servicePort := serviceBasePort + idx
	cfg.NetDevs[0].HostFwds = []qemu.FwdRule{{HostPort: servicePort, GuestPort: 22}}
	vm, err := h.Hypervisor().CreateVM(cfg)
	if err != nil {
		return nil, err
	}
	if err := h.Hypervisor().Launch(name); err != nil {
		return nil, err
	}
	f.nextIdx++
	f.guests[name] = &guest{host: hostName, memMB: memMB, servicePort: servicePort}
	h.usedMB += memMB
	f.tele.Counter("fleet_placements_total").Inc()
	return vm, nil
}

// StopGuest terminates a guest and removes it from the registry, freeing
// its memory budget. The currently backing instance is resolved through
// the service chain (so a migrated — or even infected — stack is torn
// down whole: Kill takes any nested guests with it).
func (f *Fleet) StopGuest(name string) error {
	g, ok := f.guests[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownGuest, name)
	}
	info, err := f.Lookup(name)
	if err != nil {
		return err
	}
	h := f.hosts[g.host]
	if err := h.Hypervisor().Kill(info.Outer.Name()); err != nil {
		return err
	}
	delete(f.guests, name)
	h.usedMB -= g.memMB
	f.tele.Counter("fleet_stops_total").Inc()
	return nil
}

// GuestInfo is the operator's current view of a guest: where it is and
// which VM instances presently back it. Outer is the L0 QEMU process on
// the host (the rootkit-in-the-middle when the guest is infected); Inner
// is the VM the user's agent actually runs in (== Outer when clean, the
// nested L2 VM when infected).
type GuestInfo struct {
	Name        string
	Host        string
	MemMB       int64
	ServicePort int
	Outer       *qemu.VM
	Inner       *qemu.VM
}

// Lookup resolves a guest by following the host-side service-port
// forward chain — the same vantage an operator has, which keeps the
// registry honest across migrations and even across a CloudSkulk install
// (where the outer VM is silently replaced).
func (f *Fleet) Lookup(name string) (GuestInfo, error) {
	g, ok := f.guests[name]
	if !ok {
		return GuestInfo{}, fmt.Errorf("%w: %q", ErrUnknownGuest, name)
	}
	inner, outer, err := f.hosts[g.host].Serving(g.servicePort)
	if err != nil {
		if errors.Is(err, kvm.ErrNoSuchVM) {
			err = fmt.Errorf("%w: %q: %w", ErrUnknownGuest, name, err)
		}
		return GuestInfo{}, err
	}
	return GuestInfo{
		Name:        name,
		Host:        g.host,
		MemMB:       g.memMB,
		ServicePort: g.servicePort,
		Outer:       outer,
		Inner:       inner,
	}, nil
}

// SetHostLink takes every link touching the named host down (or back up)
// — a top-of-rack failure in one call. Transfers crossing a downed link
// abort with an error matching vnet.ErrLinkDown.
func (f *Fleet) SetHostLink(host string, down bool) error {
	if _, ok := f.hosts[host]; !ok {
		return fmt.Errorf("%w: %q", ErrUnknownHost, host)
	}
	for _, other := range f.order {
		if other.spec.Name == host {
			continue
		}
		spec := f.net.Link(host, other.spec.Name)
		spec.Down = down
		f.net.SetLink(host, other.spec.Name, spec)
	}
	return nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
