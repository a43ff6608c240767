package controlplane

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"cloudskulk/internal/fleet"
	"cloudskulk/internal/telemetry"
)

// JobState is a job's position in its lifecycle.
type JobState int

const (
	JobQueued JobState = iota
	JobRunning
	JobSucceeded
	JobFailed
	JobCancelled
)

func (s JobState) String() string {
	switch s {
	case JobQueued:
		return "queued"
	case JobRunning:
		return "running"
	case JobSucceeded:
		return "succeeded"
	case JobFailed:
		return "failed"
	case JobCancelled:
		return "cancelled"
	}
	return fmt.Sprintf("JobState(%d)", int(s))
}

// Job is one asynchronous mutation moving through the queue. IDs are
// sequential in submission order — deterministic by construction — and
// all timestamps are virtual.
type Job struct {
	ID      string
	Request Request
	State   JobState
	// Err carries the terminal failure (nil unless State == JobFailed).
	Err error
	// Retries counts transient failures absorbed by the backoff loop.
	Retries int
	// Submitted/Started/Finished are virtual timestamps; Started is the
	// first dispatch, Finished the terminal transition.
	Submitted time.Duration
	Started   time.Duration
	Finished  time.Duration
	// Host is the placement outcome of a deploy or migrate.
	Host string
}

// Latency is the job's submit-to-terminal virtual latency (0 while the
// job is still in flight).
func (j *Job) Latency() time.Duration {
	if j.State == JobQueued || j.State == JobRunning {
		return 0
	}
	return j.Finished - j.Submitted
}

// Submit validates a mutation request against tenant state and quota,
// reserves what it will consume, and enqueues a job — or sheds it with
// ErrAdmission when the queue is at its bound. Reads (OpList, OpUsage)
// are rejected here: they have synchronous answers (ListVMs,
// TenantUsage) and never occupy queue slots.
func (p *Plane) Submit(req Request) (*Job, error) {
	if err := req.Validate(); err != nil {
		return nil, err
	}
	if !req.Op.Mutation() {
		return nil, fmt.Errorf("%w: %s is a read, not a job", ErrInvalidRequest, req.Op)
	}
	t, ok := p.tenants[req.Tenant]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownTenant, req.Tenant)
	}
	// Admission control first: a saturated plane sheds load before
	// touching quota, so rejects are cheap under overload.
	if len(p.queue) >= p.maxQueue {
		p.tele.Counter("cp_admission_rejects_total").Inc()
		return nil, fmt.Errorf("%w: %d queued (bound %d)", ErrAdmission, len(p.queue), p.maxQueue)
	}
	if t.quota.MaxJobs > 0 && t.activeJobs >= t.quota.MaxJobs {
		p.tele.Counter("cp_quota_rejects_total").Inc()
		return nil, fmt.Errorf("%w: %q at %d jobs", ErrQuotaJobs, req.Tenant, t.activeJobs)
	}

	switch req.Op {
	case OpDeploy:
		if _, dup := t.vms[req.VM]; dup {
			return nil, fmt.Errorf("%w: %s", ErrDuplicateVM, guestName(req.Tenant, req.VM))
		}
		if t.quota.MaxVMs > 0 && len(t.vms) >= t.quota.MaxVMs {
			p.tele.Counter("cp_quota_rejects_total").Inc()
			return nil, fmt.Errorf("%w: %q at %d VMs", ErrQuotaVMs, req.Tenant, len(t.vms))
		}
		if t.quota.MaxMemMB > 0 && t.usedMemMB+req.MemMB > t.quota.MaxMemMB {
			p.tele.Counter("cp_quota_rejects_total").Inc()
			return nil, fmt.Errorf("%w: %q at %d MB + %d MB requested",
				ErrQuotaMemory, req.Tenant, t.usedMemMB, req.MemMB)
		}
		// Reserve at submit: the record exists from here on, so queued
		// deploys count against quota before they run.
		t.vms[req.VM] = &vmRecord{memMB: req.MemMB, state: vmDeploying}
		t.usedMemMB += req.MemMB
	case OpStop, OpMigrate, OpSnapshot:
		rec, ok := t.vms[req.VM]
		if !ok {
			return nil, fmt.Errorf("%w: %s", ErrUnknownVM, guestName(req.Tenant, req.VM))
		}
		if rec.state != vmRunning {
			return nil, fmt.Errorf("%w: %s is %s", ErrInvalidRequest,
				guestName(req.Tenant, req.VM), rec.state)
		}
	}

	p.nextJob++
	job := &Job{
		ID:        fmt.Sprintf("job-%08d", p.nextJob),
		Request:   req,
		State:     JobQueued,
		Submitted: p.eng.Now(),
	}
	t.activeJobs++
	p.jobs[job.ID] = job
	p.queue = append(p.queue, job)
	p.tele.Counter("cp_jobs_submitted_total").Inc()
	p.tele.Gauge("cp_queue_depth").Set(int64(len(p.queue)))
	p.pump()
	return job, nil
}

// Jobs returns every job, in submission (ID) order.
func (p *Plane) Jobs() []*Job {
	ids := make([]string, 0, len(p.jobs))
	for id := range p.jobs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	out := make([]*Job, 0, len(ids))
	for _, id := range ids {
		out = append(out, p.jobs[id])
	}
	return out
}

// CancelJob cancels a job still sitting in the queue. Anything past the
// queue — dispatched into a slot or already running — is not
// cancellable: fleet mutations are not interruptible mid-flight,
// matching real planes where in-progress migrations must finish or fail.
func (p *Plane) CancelJob(id string) error {
	j, ok := p.jobs[id]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownJob, id)
	}
	// State alone cannot tell a queued job from a dispatched one (both
	// read JobQueued until the dispatch event fires), so membership in
	// the queue is the authority.
	idx := -1
	for i, q := range p.queue {
		if q == j {
			idx = i
			break
		}
	}
	if j.State != JobQueued || idx < 0 {
		if j.State == JobQueued {
			return fmt.Errorf("%w: %q already dispatched", ErrJobNotCancellable, id)
		}
		return fmt.Errorf("%w: %q is %s", ErrJobNotCancellable, id, j.State)
	}
	p.queue = append(p.queue[:idx], p.queue[idx+1:]...)
	j.State = JobCancelled
	j.Finished = p.eng.Now()
	p.rollback(j)
	p.settle(j)
	p.tele.Counter("cp_jobs_cancelled_total").Inc()
	p.tele.Gauge("cp_queue_depth").Set(int64(len(p.queue)))
	return nil
}

// Outstanding counts jobs not yet in a terminal state: queued, running,
// or waiting out a retry backoff.
func (p *Plane) Outstanding() int {
	return len(p.queue) + p.running + p.backoff
}

// Drain pumps the engine until every submitted job reaches a terminal
// state — the experiment's "wait for the plane to go quiet" call.
func (p *Plane) Drain() {
	for p.Outstanding() > 0 && p.eng.Step() {
	}
}

// pump dispatches queued jobs into free execution slots. Each dispatch
// is a scheduled event DispatchLatency in the future: the scheduler's
// own overhead, and the hook that makes execution asynchronous with
// respect to Submit.
func (p *Plane) pump() {
	for p.running < p.slots && len(p.queue) > 0 {
		job := p.queue[0]
		p.queue = p.queue[1:]
		p.running++
		p.tele.Gauge("cp_queue_depth").Set(int64(len(p.queue)))
		p.eng.Schedule(p.dispatch, "cp.dispatch "+job.ID, func() {
			p.execute(job)
		})
	}
}

// execute runs one job to a terminal state, retrying transient fleet
// errors with the shared backoff policy. It runs inside an engine event;
// fleet operations advance virtual time internally (reentrant stepping),
// so concurrent jobs interleave exactly as their costs dictate.
func (p *Plane) execute(job *Job) {
	if job.State == JobQueued {
		job.State = JobRunning
		job.Started = p.eng.Now()
	}
	span := p.spans.Start("cp.job",
		telemetry.A("id", job.ID),
		telemetry.A("op", job.Request.Op.String()),
		telemetry.A("tenant", job.Request.Tenant))
	err := p.perform(job)
	retry := p.f.Retry()
	if err != nil && transient(err) && job.Retries < retry.Attempts-1 {
		// Back off in virtual time and try again; the slot is released
		// so other jobs run during the backoff window.
		delay := retry.Delay(job.Retries)
		job.Retries++
		p.tele.Counter("cp_jobs_retried_total").Inc()
		span.Set("outcome", "retry")
		span.End()
		p.running--
		p.backoff++
		p.eng.Schedule(delay, "cp.retry "+job.ID, func() {
			p.backoff--
			p.running++
			p.execute(job)
		})
		p.pump()
		return
	}
	job.Finished = p.eng.Now()
	if err != nil {
		job.State = JobFailed
		job.Err = err
		p.rollback(job)
		p.tele.Counter("cp_jobs_failed_total").Inc()
		span.Set("outcome", "failed")
	} else {
		job.State = JobSucceeded
		p.commit(job)
		p.tele.Counter("cp_jobs_succeeded_total").Inc()
		span.Set("outcome", "succeeded")
	}
	p.settle(job)
	p.tele.Histogram("cp_job_latency_us", telemetry.DurationBuckets).
		Observe(int64(job.Latency() / time.Microsecond))
	span.End()
	p.running--
	p.pump()
}

// transient reports whether a fleet error is worth retrying: placement
// pressure and migration aborts clear as other jobs release resources,
// while unknown-guest or validation failures never will.
func transient(err error) bool {
	return errors.Is(err, fleet.ErrNoPlacement) ||
		errors.Is(err, fleet.ErrMigrationFailed) ||
		errors.Is(err, fleet.ErrInsufficientMemory)
}

// perform issues the job's fleet mutation.
func (p *Plane) perform(job *Job) error {
	req := job.Request
	gname := guestName(req.Tenant, req.VM)
	switch req.Op {
	case OpDeploy:
		host, err := p.f.PickHostFor(req.MemMB, fleet.Policy{})
		if err != nil {
			return err
		}
		if p.tmpl != nil && p.tmpl.SizeBytes()>>20 == req.MemMB {
			// Golden-image deploy: fork the template copy-on-write.
			if _, err := p.f.StartGuestFrom(host, gname, p.tmpl); err != nil {
				return err
			}
		} else if _, err := p.f.StartGuest(host, gname, req.MemMB); err != nil {
			return err
		}
		job.Host = host
		return nil
	case OpStop:
		return p.f.StopGuest(gname)
	case OpMigrate:
		dst := req.Target
		if dst == "" {
			var err error
			if dst, err = p.f.PickHost(gname, fleet.Policy{}); err != nil {
				return err
			}
		}
		rep, err := p.f.MigrateVM(gname, dst)
		if err != nil {
			return err
		}
		job.Host = rep.To
		return nil
	case OpSnapshot:
		info, err := p.f.Lookup(gname)
		if err != nil {
			return err
		}
		return info.Inner.SaveSnapshot(req.Target)
	}
	return fmt.Errorf("%w: op %s not executable", ErrInvalidRequest, req.Op)
}

// commit applies a succeeded job's bookkeeping.
func (p *Plane) commit(job *Job) {
	t := p.tenants[job.Request.Tenant]
	switch job.Request.Op {
	case OpDeploy:
		t.vms[job.Request.VM].state = vmRunning
	case OpStop:
		rec := t.vms[job.Request.VM]
		t.usedMemMB -= rec.memMB
		delete(t.vms, job.Request.VM)
	}
}

// rollback releases what Submit reserved for a job that failed.
func (p *Plane) rollback(job *Job) {
	t := p.tenants[job.Request.Tenant]
	if job.Request.Op == OpDeploy {
		if rec, ok := t.vms[job.Request.VM]; ok && rec.state == vmDeploying {
			t.usedMemMB -= rec.memMB
			delete(t.vms, job.Request.VM)
		}
	}
}

// settle releases the tenant's job-concurrency slot.
func (p *Plane) settle(job *Job) {
	p.tenants[job.Request.Tenant].activeJobs--
}
