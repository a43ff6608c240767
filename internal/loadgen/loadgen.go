// Package loadgen replays seeded tenant traffic against a control
// plane: millions of deploy/stop/migrate/snapshot/list/usage calls from
// thousands of tenants, arriving on an exponential clock in virtual
// time. Everything — op choice, tenant choice, arrival gaps, flavors —
// comes from one seeded RNG, so a run is a pure function of (plane
// seed, loadgen seed, options) and replays byte-identically.
package loadgen

import (
	"errors"
	"fmt"
	"time"

	"cloudskulk/internal/controlplane"
	"cloudskulk/internal/sim"
)

// Mix weighs the op types; weights are relative, not percentages. The
// zero Mix means DefaultMix.
type Mix struct {
	Deploy   int
	Stop     int
	Migrate  int
	Snapshot int
	List     int
	Usage    int
	// Cancel aims CancelJob at a previously accepted job. Most draws race
	// the queue — the job may already be dispatched or terminal, which the
	// plane reports as ErrJobNotCancellable — so a cancel-heavy mix is the
	// job queue's race-path stress test.
	Cancel int
}

// DefaultMix is cloud-shaped traffic: read-dominated, deploys a few
// percent, migrations rare.
var DefaultMix = Mix{Deploy: 5, Stop: 2, Migrate: 1, Snapshot: 2, List: 45, Usage: 45}

func (m Mix) total() int {
	return m.Deploy + m.Stop + m.Migrate + m.Snapshot + m.List + m.Usage + m.Cancel
}

// Options shapes one load run.
type Options struct {
	// Tenants is how many tenant accounts Run creates (t00000…).
	Tenants int
	// Ops is the total number of API calls to issue.
	Ops int
	// Seed feeds the generator's private RNG (arrival gaps, op and
	// tenant choice, flavors).
	Seed int64
	// Mix weighs the op types (DefaultMix if zero).
	Mix Mix
	// MeanGap is the mean exponential inter-arrival gap in virtual time
	// (default 2ms).
	MeanGap time.Duration
	// Flavors lists deployable VM sizes in MB (default 4, 8, 16).
	Flavors []int64
	// Quota is applied to every tenant (controlplane.DefaultQuota when
	// zero).
	Quota controlplane.Quota
}

// Stats is a run's deterministic outcome ledger. Submission-side counts
// (Issued through OtherRejects) tally Submit results; job-side counts
// (Succeeded/Failed/Cancelled/Retries) tally terminal job states after
// the plane drains.
type Stats struct {
	Issued           int
	Mutations        int
	Reads            int
	Accepted         int
	QuotaRejects     int
	AdmissionRejects int
	OtherRejects     int

	// CancelAttempts counts CancelJob calls; CancelRaces the attempts
	// that lost the race to the dispatcher (or found nothing to cancel).
	CancelAttempts int
	CancelRaces    int

	Succeeded int
	Failed    int
	Cancelled int
	Retries   int

	// VirtualTime is the engine clock when the run went quiet.
	VirtualTime time.Duration
}

// gen is one run's mutable state.
type gen struct {
	p       *controlplane.Plane
	o       Options
	rng     *sim.Rand
	stats   Stats
	tenants []string // tenant names t00000…, rendered once
	nextVM  []int    // per-tenant deploy counter (names never reused)
	snaps   int      // global snapshot-name counter
	jobIDs  []string // accepted job IDs, in submission order (cancel targets)
}

// Run creates o.Tenants accounts on p, issues o.Ops API calls on an
// exponential virtual-time clock, drains the plane, and returns the
// ledger. The plane must be fresh enough that tenant names t00000… are
// unclaimed.
func Run(p *controlplane.Plane, o Options) (Stats, error) {
	if o.Tenants <= 0 || o.Ops <= 0 {
		return Stats{}, fmt.Errorf("loadgen: need tenants > 0 and ops > 0, got %d/%d", o.Tenants, o.Ops)
	}
	if o.Mix == (Mix{}) {
		o.Mix = DefaultMix
	}
	if o.Mix.total() <= 0 {
		return Stats{}, fmt.Errorf("loadgen: mix weights sum to %d", o.Mix.total())
	}
	if o.MeanGap <= 0 {
		o.MeanGap = 2 * time.Millisecond
	}
	if len(o.Flavors) == 0 {
		o.Flavors = []int64{4, 8, 16}
	}
	g := &gen{
		p:      p,
		o:      o,
		rng:    sim.NewRand(o.Seed),
		nextVM: make([]int, o.Tenants),
	}
	g.tenants = make([]string, o.Tenants)
	for i := range g.tenants {
		g.tenants[i] = fmt.Sprintf("t%05d", i)
		if err := p.CreateTenant(g.tenants[i], o.Quota); err != nil {
			return Stats{}, err
		}
	}
	eng := p.Fleet().Engine()
	// Open-loop arrivals: timestamps accumulate from the RNG alone, so
	// tenants keep hitting the API on their own clock no matter how far
	// execution (whose costs advance the shared engine) falls behind —
	// exactly the property that lets bursts pile onto the job queue and
	// exercise admission control. The chain keeps O(1) events pending;
	// an arrival time already in the past fires at the next step.
	next := eng.Now()
	var arrive func()
	arrive = func() {
		g.issue()
		if g.stats.Issued < o.Ops {
			next += g.gap()
			eng.ScheduleAt(next, "loadgen.arrive", arrive)
		}
	}
	next += g.gap()
	eng.ScheduleAt(next, "loadgen.arrive", arrive)
	for (g.stats.Issued < o.Ops || p.Outstanding() > 0) && eng.Step() {
	}
	for _, j := range p.Jobs() {
		g.stats.Retries += j.Retries
		switch j.State {
		case controlplane.JobSucceeded:
			g.stats.Succeeded++
		case controlplane.JobFailed:
			g.stats.Failed++
		case controlplane.JobCancelled:
			g.stats.Cancelled++
		}
	}
	g.stats.VirtualTime = eng.Now()
	return g.stats, nil
}

// gap draws the next exponential inter-arrival delay.
func (g *gen) gap() time.Duration {
	return time.Duration(g.rng.ExpFloat64() * float64(g.o.MeanGap))
}

// issue performs one API call: draw a tenant and an op, aim mutations
// at real VMs (a mutation drawn for a tenant with no running VM turns
// into a deploy, keeping pressure on the fleet), and tally the result.
func (g *gen) issue() {
	g.stats.Issued++
	ti := g.rng.Intn(g.o.Tenants)
	ten := g.tenants[ti]
	w := g.rng.Intn(g.o.Mix.total())
	m := g.o.Mix
	switch {
	case w < m.Deploy:
		g.deploy(ti, ten)
	case w < m.Deploy+m.Stop:
		g.mutate(ti, ten, controlplane.OpStop)
	case w < m.Deploy+m.Stop+m.Migrate:
		g.mutate(ti, ten, controlplane.OpMigrate)
	case w < m.Deploy+m.Stop+m.Migrate+m.Snapshot:
		g.mutate(ti, ten, controlplane.OpSnapshot)
	case w < m.Deploy+m.Stop+m.Migrate+m.Snapshot+m.List:
		g.stats.Reads++
		_, _ = g.p.ListVMs(ten)
	case w < m.Deploy+m.Stop+m.Migrate+m.Snapshot+m.List+m.Cancel:
		g.cancel()
	default:
		g.stats.Reads++
		_, _ = g.p.TenantUsage(ten)
	}
}

// deploy submits a fresh-named deploy for tenant index ti.
func (g *gen) deploy(ti int, ten string) {
	vm := fmt.Sprintf("v%04d", g.nextVM[ti])
	g.nextVM[ti]++
	flavor := g.o.Flavors[g.rng.Intn(len(g.o.Flavors))]
	g.submit(controlplane.Request{Op: controlplane.OpDeploy, Tenant: ten, VM: vm, MemMB: flavor})
}

// mutate aims op at one of the tenant's running VMs, falling back to a
// deploy when it has none.
func (g *gen) mutate(ti int, ten string, op controlplane.Op) {
	vms, err := g.p.ListVMs(ten)
	if err != nil {
		g.stats.Mutations++
		g.stats.OtherRejects++
		return
	}
	running := vms[:0]
	for _, v := range vms {
		if v.State == "running" {
			running = append(running, v)
		}
	}
	if len(running) == 0 {
		g.deploy(ti, ten)
		return
	}
	req := controlplane.Request{Op: op, Tenant: ten, VM: running[g.rng.Intn(len(running))].Name}
	if op == controlplane.OpSnapshot {
		g.snaps++
		req.Target = fmt.Sprintf("s%08d", g.snaps)
	}
	g.submit(req)
}

// cancel aims CancelJob at a random previously accepted job. The draw
// deliberately spans the job's whole history, so most attempts lose the
// race — already dispatched, already terminal — and only a job still
// sitting in the queue actually dies. Both outcomes are tallied; neither
// is an error.
func (g *gen) cancel() {
	g.stats.CancelAttempts++
	if len(g.jobIDs) == 0 {
		g.stats.CancelRaces++
		return
	}
	id := g.jobIDs[g.rng.Intn(len(g.jobIDs))]
	if err := g.p.CancelJob(id); err != nil {
		g.stats.CancelRaces++
	}
}

// submit issues one mutation and classifies the outcome.
func (g *gen) submit(req controlplane.Request) {
	g.stats.Mutations++
	job, err := g.p.Submit(req)
	switch {
	case err == nil:
		g.stats.Accepted++
		g.jobIDs = append(g.jobIDs, job.ID)
	case errors.Is(err, controlplane.ErrAdmission):
		g.stats.AdmissionRejects++
	case errors.Is(err, controlplane.ErrQuotaVMs),
		errors.Is(err, controlplane.ErrQuotaMemory),
		errors.Is(err, controlplane.ErrQuotaJobs):
		g.stats.QuotaRejects++
	default:
		g.stats.OtherRejects++
	}
}
