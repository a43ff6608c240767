// Package controlplane is the deterministic IaaS management layer over
// internal/fleet: the CloudStack-style API a CloudSkulk attacker rides
// and an operator defends. Tenants submit typed requests (deploy, stop,
// migrate, snapshot, list, usage); mutations run through an async job
// queue scheduled on the shared sim.Engine with per-tenant quotas,
// bounded retries, and admission control — all pure functions of the
// engine seed, so million-op load replays byte-identically at any
// worker count.
package controlplane

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"cloudskulk/internal/fleet"
	"cloudskulk/internal/mem"
	"cloudskulk/internal/sim"
	"cloudskulk/internal/telemetry"
)

// Errors callers match on. Quota and admission rejections are typed so
// load generators and operators can tell "you asked for too much"
// (quota), "the plane is saturated" (admission), and "that thing does
// not exist" (unknown-*) apart.
var (
	ErrUnknownTenant     = errors.New("controlplane: unknown tenant")
	ErrDuplicateTenant   = errors.New("controlplane: tenant already exists")
	ErrUnknownVM         = errors.New("controlplane: unknown vm")
	ErrDuplicateVM       = errors.New("controlplane: vm already exists")
	ErrUnknownJob        = errors.New("controlplane: unknown job")
	ErrJobNotCancellable = errors.New("controlplane: job not cancellable")
	ErrQuotaVMs          = errors.New("controlplane: tenant vm quota exceeded")
	ErrQuotaMemory       = errors.New("controlplane: tenant memory quota exceeded")
	ErrQuotaJobs         = errors.New("controlplane: tenant concurrent-job quota exceeded")
	ErrAdmission         = errors.New("controlplane: admission control: job queue full")
	ErrInvalidRequest    = errors.New("controlplane: invalid request")
)

// Quota bounds one tenant's footprint. Zero-valued fields are unlimited.
type Quota struct {
	// MaxVMs caps deployed-plus-deploying VMs.
	MaxVMs int
	// MaxMemMB caps the sum of deployed-plus-deploying VM memory.
	MaxMemMB int64
	// MaxJobs caps queued-plus-running jobs (per-tenant concurrency).
	MaxJobs int
}

// DefaultQuota is the quota tenants get when created with a zero Quota:
// a small-shop allowance that load tests can saturate.
var DefaultQuota = Quota{MaxVMs: 8, MaxMemMB: 1024, MaxJobs: 4}

// vmState tracks a tenant VM through its deploy lifecycle.
type vmState int

const (
	vmDeploying vmState = iota // quota reserved, deploy job not finished
	vmRunning
)

func (s vmState) String() string {
	if s == vmDeploying {
		return "deploying"
	}
	return "running"
}

// vmRecord is the plane's view of one tenant VM, keyed by its
// tenant-local name. Quota is reserved at submit time (the record exists
// from Submit on), so racing deploys in the queue cannot oversubscribe a
// tenant.
type vmRecord struct {
	memMB int64
	state vmState
}

// tenant is one account, keyed by its name: quota, VM set, live job count.
type tenant struct {
	quota      Quota
	vms        map[string]*vmRecord
	usedMemMB  int64
	activeJobs int // queued + running jobs charged to the tenant
}

// Usage is a tenant's current consumption against quota — the answer to
// a TenantUsage request.
type Usage struct {
	Tenant     string
	VMs        int
	MemMB      int64
	ActiveJobs int
	Quota      Quota
}

// VMInfo is one row of a ListVMs answer.
type VMInfo struct {
	Tenant string
	Name   string
	MemMB  int64
	State  string
	Host   string // empty while deploying
}

// Config tunes the plane's queue machinery.
type Config struct {
	// MaxQueue bounds queued (not yet dispatched) jobs; submissions
	// beyond it are shed with ErrAdmission. Default 64.
	MaxQueue int
	// Slots bounds concurrently executing jobs. Default 4.
	Slots int
	// DispatchLatency is the virtual-time cost of picking a job off the
	// queue — the scheduler's own overhead. Default 500µs.
	DispatchLatency time.Duration
	// Template, when set, backs every deploy with a frozen golden memory
	// image: guests whose requested memory matches the template's size
	// fork it copy-on-write (fleet.StartGuestFrom) instead of populating
	// fresh RAM, making deploy cost independent of guest memory size.
	// Differently-sized requests fall back to the cold-boot path.
	Template *mem.Template
}

// Plane is the management API over one fleet. Not safe for concurrent
// use: like everything sim-facing it is single-threaded by design.
type Plane struct {
	f     *fleet.Fleet
	eng   *sim.Engine
	tele  *telemetry.Registry
	spans *telemetry.SpanTracer

	maxQueue int
	slots    int
	dispatch time.Duration
	tmpl     *mem.Template

	tenants map[string]*tenant

	jobs    map[string]*Job
	queue   []*Job // FIFO of queued jobs
	running int
	backoff int // jobs waiting out a retry delay
	nextJob int
}

// New builds a plane over f. The plane shares the fleet's engine,
// telemetry registry, and span tracer, so one experiment artefact sees
// all layers.
func New(f *fleet.Fleet, cfg Config) *Plane {
	if cfg.MaxQueue <= 0 {
		cfg.MaxQueue = 64
	}
	if cfg.Slots <= 0 {
		cfg.Slots = 4
	}
	if cfg.DispatchLatency <= 0 {
		cfg.DispatchLatency = 500 * time.Microsecond
	}
	return &Plane{
		f:        f,
		eng:      f.Engine(),
		tele:     f.Telemetry(),
		spans:    f.Spans(),
		maxQueue: cfg.MaxQueue,
		slots:    cfg.Slots,
		dispatch: cfg.DispatchLatency,
		tmpl:     cfg.Template,
		tenants:  make(map[string]*tenant),
		jobs:     make(map[string]*Job),
	}
}

// Fleet returns the underlying fleet.
func (p *Plane) Fleet() *fleet.Fleet { return p.f }

// CreateTenant registers an account. A zero quota gets DefaultQuota;
// individual zero fields mean unlimited.
func (p *Plane) CreateTenant(name string, q Quota) error {
	if name == "" {
		return fmt.Errorf("%w: empty tenant name", ErrInvalidRequest)
	}
	if _, dup := p.tenants[name]; dup {
		return fmt.Errorf("%w: %q", ErrDuplicateTenant, name)
	}
	if q == (Quota{}) {
		q = DefaultQuota
	}
	p.tenants[name] = &tenant{quota: q, vms: make(map[string]*vmRecord)}
	p.tele.Counter("cp_tenants_total").Inc()
	return nil
}

// Tenants returns all tenant names, sorted.
func (p *Plane) Tenants() []string {
	out := make([]string, 0, len(p.tenants))
	for name := range p.tenants {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// TenantUsage answers synchronously: reads never queue.
func (p *Plane) TenantUsage(name string) (Usage, error) {
	t, ok := p.tenants[name]
	if !ok {
		return Usage{}, fmt.Errorf("%w: %q", ErrUnknownTenant, name)
	}
	return Usage{
		Tenant:     name,
		VMs:        len(t.vms),
		MemMB:      t.usedMemMB,
		ActiveJobs: t.activeJobs,
		Quota:      t.quota,
	}, nil
}

// ListVMs answers synchronously with the tenant's VMs, sorted by name.
func (p *Plane) ListVMs(name string) ([]VMInfo, error) {
	t, ok := p.tenants[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownTenant, name)
	}
	names := make([]string, 0, len(t.vms))
	for vm := range t.vms {
		names = append(names, vm)
	}
	sort.Strings(names)
	out := make([]VMInfo, 0, len(names))
	for _, vm := range names {
		rec := t.vms[vm]
		info := VMInfo{Tenant: name, Name: vm, MemMB: rec.memMB, State: rec.state.String()}
		if rec.state == vmRunning {
			if gi, err := p.f.Lookup(guestName(name, vm)); err == nil {
				info.Host = gi.Host
			}
		}
		out = append(out, info)
	}
	return out, nil
}

// guestName maps a tenant-scoped VM to its fleet-wide guest name. The
// "." separator keeps tenant namespaces from colliding while staying
// out of the fabric's "/"-scoped nested endpoint syntax.
func guestName(tenant, vm string) string { return tenant + "." + vm }
