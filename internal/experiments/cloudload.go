package experiments

import (
	"fmt"
	"sort"
	"time"

	"cloudskulk/internal/controlplane"
	"cloudskulk/internal/fleet"
	"cloudskulk/internal/loadgen"
	"cloudskulk/internal/report"
	"cloudskulk/internal/runner"
)

// CloudLoadConfig sizes the control-plane load experiment. The run
// shards into Cells independent (fleet, plane, generator) triples, each
// seeded from the experiment seed and its cell index, so the total
// tenant and op counts are Cells × per-cell values and the artefact is
// byte-identical for any worker count.
type CloudLoadConfig struct {
	Cells          int
	TenantsPerCell int
	OpsPerCell     int
	HostsPerCell   int
	HostMemMB      int64
	MaxQueue       int
	Slots          int
}

// DefaultCloudLoadConfig is the headline configuration: 64 cells × 160
// tenants × 16 000 ops = 10 240 tenants issuing 1 024 000 operations
// against 512 simulated hosts. Quotas and host budgets are set so the
// fleet saturates mid-run: the artefact exercises quota rejects,
// admission sheds, placement retries, and failures together.
func DefaultCloudLoadConfig() CloudLoadConfig {
	return CloudLoadConfig{
		Cells:          64,
		TenantsPerCell: 160,
		OpsPerCell:     16000,
		HostsPerCell:   8,
		HostMemMB:      256,
		MaxQueue:       6,
		Slots:          3,
	}
}

// QuickCloudLoadConfig is a seconds-scale configuration for -scale
// quick and smoke tests.
func QuickCloudLoadConfig() CloudLoadConfig {
	c := DefaultCloudLoadConfig()
	c.Cells = 8
	c.TenantsPerCell = 40
	c.OpsPerCell = 500
	return c
}

// CloudLoadResult is the aggregated million-op ledger.
type CloudLoadResult struct {
	Config CloudLoadConfig

	// Submission ledger, summed over cells.
	Issued           int
	Mutations        int
	Reads            int
	Accepted         int
	QuotaRejects     int
	AdmissionRejects int
	OtherRejects     int

	// Job outcomes.
	Succeeded int
	Failed    int
	Retries   int

	// P50/P99 are job submit-to-terminal latencies over every terminal
	// job in every cell, in microseconds of virtual time.
	P50us int64
	P99us int64
	// ThroughputPerMin is terminal jobs per virtual minute, aggregated
	// over cells.
	ThroughputPerMin float64
	// SurvivingVMs counts guests alive when the load went quiet.
	SurvivingVMs int
	// MeanSpreadMB is the mean over cells of (max − min) host free
	// memory — the placement-quality figure (0 = perfectly balanced).
	MeanSpreadMB int64
	// UtilizationPct is used guest memory over fleet capacity at the
	// end of the run, in percent.
	UtilizationPct int64
}

// Render formats the ledger as an ASCII table.
func (r *CloudLoadResult) Render() string {
	c := r.Config
	t := report.Table{
		Title: fmt.Sprintf("Cloud control-plane load: %s tenants, %s ops, %d hosts (%d cells)",
			report.Comma(int64(c.Cells*c.TenantsPerCell)),
			report.Comma(int64(c.Cells*c.OpsPerCell)),
			c.Cells*c.HostsPerCell, c.Cells),
		Headers: []string{"metric", "value"},
	}
	pct := func(n, d int) string {
		if d == 0 {
			return "0.0%"
		}
		return fmt.Sprintf("%.1f%%", 100*float64(n)/float64(d))
	}
	t.AddRow("ops issued", report.Comma(int64(r.Issued)))
	t.AddRow("reads (list/usage)", report.Comma(int64(r.Reads)))
	t.AddRow("mutations submitted", report.Comma(int64(r.Mutations)))
	t.AddRow("jobs accepted", report.Comma(int64(r.Accepted)))
	t.AddRow("quota rejects", fmt.Sprintf("%s (%s)", report.Comma(int64(r.QuotaRejects)), pct(r.QuotaRejects, r.Mutations)))
	t.AddRow("admission rejects", fmt.Sprintf("%s (%s)", report.Comma(int64(r.AdmissionRejects)), pct(r.AdmissionRejects, r.Mutations)))
	t.AddRow("other rejects", report.Comma(int64(r.OtherRejects)))
	t.AddRow("jobs succeeded", fmt.Sprintf("%s (%s)", report.Comma(int64(r.Succeeded)), pct(r.Succeeded, r.Accepted)))
	t.AddRow("jobs failed", report.Comma(int64(r.Failed)))
	t.AddRow("job retries", report.Comma(int64(r.Retries)))
	t.AddRow("job latency p50", fmt.Sprintf("%.2f ms", float64(r.P50us)/1000))
	t.AddRow("job latency p99", fmt.Sprintf("%.2f ms", float64(r.P99us)/1000))
	t.AddRow("throughput", fmt.Sprintf("%.1f jobs/sim-min", r.ThroughputPerMin))
	t.AddRow("surviving VMs", report.Comma(int64(r.SurvivingVMs)))
	t.AddRow("placement spread", fmt.Sprintf("%d MB", r.MeanSpreadMB))
	t.AddRow("fleet utilization", fmt.Sprintf("%d%%", r.UtilizationPct))
	return t.Render()
}

// cloudloadCell is one shard's raw outcome.
type cloudloadCell struct {
	stats    loadgen.Stats
	latUS    []int64 // terminal-job latencies, µs, in job-ID order
	vms      int
	spreadMB int64
	usedMB   int64
}

// CloudLoad drives cfg's tenant population through a control plane per
// cell and aggregates the ledgers. Zero-valued cfg fields take the
// defaults; o supplies the seed, the worker pool, the hv backend, and
// (optionally) a shared telemetry registry.
func CloudLoad(o Options, cfg CloudLoadConfig) (*CloudLoadResult, error) {
	o = o.withDefaults()
	d := DefaultCloudLoadConfig()
	if cfg.Cells <= 0 {
		cfg.Cells = d.Cells
	}
	if cfg.TenantsPerCell <= 0 {
		cfg.TenantsPerCell = d.TenantsPerCell
	}
	if cfg.OpsPerCell <= 0 {
		cfg.OpsPerCell = d.OpsPerCell
	}
	if cfg.HostsPerCell <= 0 {
		cfg.HostsPerCell = d.HostsPerCell
	}
	if cfg.HostMemMB <= 0 {
		cfg.HostMemMB = d.HostMemMB
	}
	if cfg.MaxQueue <= 0 {
		cfg.MaxQueue = d.MaxQueue
	}
	if cfg.Slots <= 0 {
		cfg.Slots = d.Slots
	}
	if _, err := o.resolveBackend(); err != nil {
		return nil, err
	}

	cells, err := runner.Map(cfg.Cells, o.runnerOptions(), func(i int) (cloudloadCell, error) {
		label := cellLabel("cloudload", fmt.Sprintf("cell%03d", i))
		return cloudloadOnce(o, cfg, perRunSeed(o, label, 0), perRunSeed(o, label+"/load", 0))
	})
	if err != nil {
		return nil, err
	}

	res := &CloudLoadResult{Config: cfg}
	var latencies []int64
	var totalVirtual time.Duration
	var totalSpread, totalUsed, capacity int64
	for _, cell := range cells {
		s := cell.stats
		res.Issued += s.Issued
		res.Mutations += s.Mutations
		res.Reads += s.Reads
		res.Accepted += s.Accepted
		res.QuotaRejects += s.QuotaRejects
		res.AdmissionRejects += s.AdmissionRejects
		res.OtherRejects += s.OtherRejects
		res.Succeeded += s.Succeeded
		res.Failed += s.Failed
		res.Retries += s.Retries
		res.SurvivingVMs += cell.vms
		latencies = append(latencies, cell.latUS...)
		totalVirtual += s.VirtualTime
		totalSpread += cell.spreadMB
		totalUsed += cell.usedMB
		capacity += int64(cfg.HostsPerCell) * cfg.HostMemMB
	}
	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	res.P50us = percentile(latencies, 50)
	res.P99us = percentile(latencies, 99)
	if totalVirtual > 0 {
		res.ThroughputPerMin = float64(res.Succeeded+res.Failed) /
			(float64(totalVirtual) / float64(time.Minute))
	}
	res.MeanSpreadMB = totalSpread / int64(cfg.Cells)
	if capacity > 0 {
		res.UtilizationPct = totalUsed * 100 / capacity
	}
	return res, nil
}

// percentile picks the p-th percentile of a sorted slice by
// nearest-rank; 0 on empty input.
func percentile(sorted []int64, p int) int64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := (len(sorted) - 1) * p / 100
	return sorted[idx]
}

// cloudloadOnce runs one cell: fleet, plane, load, final accounting.
func cloudloadOnce(o Options, cfg CloudLoadConfig, fleetSeed, loadSeed int64) (cloudloadCell, error) {
	specs := make([]fleet.HostSpec, cfg.HostsPerCell)
	for i := range specs {
		specs[i] = fleet.HostSpec{Name: fmt.Sprintf("h%02d", i), MemMB: cfg.HostMemMB}
	}
	flOpts := []fleet.Option{
		fleet.WithHostSpecs(specs...),
		fleet.WithRetry(3, 250*time.Millisecond),
		fleet.WithBackend(o.Backend),
	}
	if o.Telemetry != nil {
		flOpts = append(flOpts, fleet.WithTelemetry(o.Telemetry))
	}
	fl, err := fleet.New(fleetSeed, flOpts...)
	if err != nil {
		return cloudloadCell{}, err
	}
	plane := controlplane.New(fl, controlplane.Config{
		MaxQueue: cfg.MaxQueue,
		Slots:    cfg.Slots,
	})
	// Every cell runs the same traffic: 92% reads, 4 and 8 MB flavors and
	// a per-tenant quota that, with the host budgets, saturates the fleet
	// mid-run.
	stats, err := loadgen.Run(plane, loadgen.Options{
		Tenants: cfg.TenantsPerCell,
		Ops:     cfg.OpsPerCell,
		Seed:    loadSeed,
		Mix:     loadgen.Mix{Deploy: 4, Stop: 2, Migrate: 1, Snapshot: 1, List: 46, Usage: 46},
		MeanGap: 500 * time.Millisecond,
		Flavors: []int64{4, 8},
		Quota:   controlplane.Quota{MaxVMs: 3, MaxMemMB: 24, MaxJobs: 2},
	})
	if err != nil {
		return cloudloadCell{}, err
	}
	cell := cloudloadCell{stats: stats, vms: len(fl.GuestNames())}
	for _, j := range plane.Jobs() {
		if j.State == controlplane.JobSucceeded || j.State == controlplane.JobFailed {
			cell.latUS = append(cell.latUS, int64(j.Latency()/time.Microsecond))
		}
	}
	minFree, maxFree := int64(-1), int64(-1)
	for _, h := range fl.HostNames() {
		free := fl.FreeMemMB(h)
		if minFree < 0 || free < minFree {
			minFree = free
		}
		if free > maxFree {
			maxFree = free
		}
		cell.usedMB += cfg.HostMemMB - free
	}
	cell.spreadMB = maxFree - minFree
	return cell, nil
}
