package cloudskulk

import (
	"time"

	"cloudskulk/internal/experiments"
	"cloudskulk/internal/runner"
	"cloudskulk/internal/scenario"
)

// SweepProgress is a live progress snapshot delivered to
// ExperimentOptions.OnProgress while a sweep's cells execute: cells
// done/total, throughput, and the estimated time remaining.
type SweepProgress = runner.Progress

// Experiment result types, re-exported so downstream tools can regenerate
// the paper's tables and figures programmatically.
type (
	// Figure2Result is the kernel-compile timing figure.
	Figure2Result = experiments.Figure2Result
	// Figure3Result is the netperf throughput figure.
	Figure3Result = experiments.Figure3Result
	// Figure4Result is the live-migration timing figure.
	Figure4Result = experiments.Figure4Result
	// Table1Result is the VM-escape CVE inventory.
	Table1Result = experiments.Table1Result
	// Table2Result is the lmbench arithmetic table.
	Table2Result = experiments.Table2Result
	// Table3Result is the lmbench process table.
	Table3Result = experiments.Table3Result
	// Table4Result is the lmbench file-op table.
	Table4Result = experiments.Table4Result
	// DetectionResult is one Figs. 5-6 run: verdict plus t0/t1/t2.
	DetectionResult = experiments.DetectionResult
	// BaselineComparisonResult pits the three detectors against
	// attacker variants.
	BaselineComparisonResult = experiments.BaselineComparisonResult
)

// Table1CVE regenerates Table I.
func Table1CVE() Table1Result { return experiments.Table1CVE() }

// Figure2KernelCompile regenerates Fig. 2.
func Figure2KernelCompile(o ExperimentOptions) (Figure2Result, error) {
	return experiments.Figure2KernelCompile(o)
}

// Figure3Netperf regenerates Fig. 3.
func Figure3Netperf(o ExperimentOptions) (Figure3Result, error) {
	return experiments.Figure3Netperf(o)
}

// Figure4Migration regenerates Fig. 4.
func Figure4Migration(o ExperimentOptions) (Figure4Result, error) {
	return experiments.Figure4Migration(o)
}

// Table2Arithmetic regenerates Table II.
func Table2Arithmetic(o ExperimentOptions) Table2Result {
	return experiments.Table2Arithmetic(o)
}

// Table3Processes regenerates Table III.
func Table3Processes(o ExperimentOptions) Table3Result {
	return experiments.Table3Processes(o)
}

// Table4FileOps regenerates Table IV.
func Table4FileOps(o ExperimentOptions) Table4Result {
	return experiments.Table4FileOps(o)
}

// Figure5DetectionClean regenerates Fig. 5 (no nested VM).
func Figure5DetectionClean(o ExperimentOptions) (DetectionResult, error) {
	return experiments.Figure5DetectionClean(o)
}

// Figure6DetectionInfected regenerates Fig. 6 (rootkit installed).
func Figure6DetectionInfected(o ExperimentOptions) (DetectionResult, error) {
	return experiments.Figure6DetectionInfected(o)
}

// BaselineComparison evaluates all three detectors against attacker
// variants (the paper's §VI-E discussion as an experiment).
func BaselineComparison(o ExperimentOptions) (BaselineComparisonResult, error) {
	return experiments.BaselineComparison(o)
}

// ArmsRaceSyncCountermeasure runs the §VI-D attacker-synchronization
// matrix: sync strategies vs probe choices, with overhead accounting.
func ArmsRaceSyncCountermeasure(o ExperimentOptions) (experiments.ArmsRaceResult, error) {
	return experiments.ArmsRaceSyncCountermeasure(o)
}

// ArmsRaceMatrix runs the scenario engine's full coverage matrix:
// generated attacker strategies × the detector roster × every registered
// backend (or just o.Backend when set). The artefact is byte-identical
// for any Workers value.
func ArmsRaceMatrix(o ExperimentOptions) (*scenario.MatrixResult, error) {
	cfg := scenario.MatrixConfig{
		Seed:       o.Seed,
		GuestMemMB: 16,
		Workers:    o.Workers,
		OnProgress: o.OnProgress,
	}
	if o.Backend != "" {
		cfg.Backends = []string{o.Backend}
	}
	return scenario.RunMatrix(cfg)
}

// MultiTenantSurvey runs the dedup-timing detector against every tenant of
// a multi-tenant host where one has been CloudSkulked.
func MultiTenantSurvey(o ExperimentOptions, tenants, infected int) (experiments.SurveyResult, error) {
	return experiments.MultiTenantSurvey(o, tenants, infected)
}

// RemediationDrill plays the defender's full runbook: detect the rootkit,
// destroy the disguised RITM stack, rebuild the tenant, verify clean.
func RemediationDrill(o ExperimentOptions) (experiments.RemediationResult, error) {
	return experiments.RemediationDrill(o)
}

// TimeToDetect measures the watchdog's detection latency under periodic
// scanning: infect mid-flight, measure infection-to-alert.
func TimeToDetect(o ExperimentOptions, scanPeriod time.Duration) (experiments.TimeToDetectResult, error) {
	return experiments.TimeToDetect(o, scanPeriod)
}

// AblationExitMultiplier sweeps the Turtles exit-multiplication factor.
func AblationExitMultiplier(o ExperimentOptions, multipliers []int) experiments.AblationExitMultiplierResult {
	return experiments.AblationExitMultiplier(o, multipliers)
}

// AblationDirtyRate sweeps guest dirty rate against migration time.
func AblationDirtyRate(o ExperimentOptions, rates []float64) (experiments.AblationDirtyRateResult, error) {
	return experiments.AblationDirtyRate(o, rates)
}

// AblationMigrationFeatures measures the worst-case install migration
// under XBZRLE and auto-converge capabilities.
func AblationMigrationFeatures(o ExperimentOptions) (experiments.AblationMigrationFeaturesResult, error) {
	return experiments.AblationMigrationFeatures(o)
}

// AblationPrePostCopy compares install cost under both migration modes.
func AblationPrePostCopy(o ExperimentOptions) (experiments.AblationPrePostCopyResult, error) {
	return experiments.AblationPrePostCopy(o)
}

// AblationTimingGap sweeps the COW/regular write timing gap the detection
// signal rests on.
func AblationTimingGap(o ExperimentOptions, gapRatios []float64) (experiments.AblationTimingGapResult, error) {
	return experiments.AblationTimingGap(o, gapRatios)
}

// AblationProbeSize sweeps the detection probe-file size.
func AblationProbeSize(o ExperimentOptions, sizes []int) (experiments.AblationProbeSizeResult, error) {
	return experiments.AblationProbeSize(o, sizes)
}

// AblationKSMWait sweeps the detector's merge window.
func AblationKSMWait(o ExperimentOptions, waits []time.Duration) (experiments.AblationKSMRateResult, error) {
	return experiments.AblationKSMWait(o, waits)
}

// Cloud control-plane load experiment.
type (
	// CloudLoadConfig sizes the control-plane load run (cells, tenants,
	// ops, quotas, queue bounds); zero fields take the defaults.
	CloudLoadConfig = experiments.CloudLoadConfig
	// CloudLoadResult is the aggregated million-op ledger.
	CloudLoadResult = experiments.CloudLoadResult
)

// DefaultCloudLoadConfig is the headline scale: 10,240 tenants issuing
// 1,024,000 operations against 512 hosts across 64 cells.
func DefaultCloudLoadConfig() CloudLoadConfig { return experiments.DefaultCloudLoadConfig() }

// QuickCloudLoadConfig is a sub-second configuration for smoke runs.
func QuickCloudLoadConfig() CloudLoadConfig { return experiments.QuickCloudLoadConfig() }

// CloudLoad drives the configured tenant population through a control
// plane per cell and aggregates the ledgers: latency percentiles,
// throughput, quota/admission reject rates, and placement quality.
func CloudLoad(o ExperimentOptions, cfg CloudLoadConfig) (*CloudLoadResult, error) {
	return experiments.CloudLoad(o, cfg)
}

// Sharded-cloud scale experiment.
type (
	// MegaStormConfig sizes the sharded grid (shards, hosts, guests,
	// golden-image size, churn volume); zero fields take the defaults.
	MegaStormConfig = experiments.MegaStormConfig
	// MegaStormResult is the scale run's deterministic ledger.
	MegaStormResult = experiments.MegaStormResult
)

// DefaultMegaStormConfig is the headline scale: 102,400 guests on 1,024
// hosts across 64 shards, every guest a copy-on-write fork of a 128 MB
// golden image.
func DefaultMegaStormConfig() MegaStormConfig { return experiments.DefaultMegaStormConfig() }

// QuickMegaStormConfig is a sub-second configuration for smoke runs.
func QuickMegaStormConfig() MegaStormConfig { return experiments.QuickMegaStormConfig() }

// MegaStorm provisions the sharded grid through per-shard control
// planes, runs a churn phase of write bursts, kernel tampering, and
// cross-shard delta migrations under conservative synchronization, then
// audits every guest kernel against the golden image. The artefact is
// byte-identical at any worker count.
func MegaStorm(o ExperimentOptions, cfg MegaStormConfig) (*MegaStormResult, error) {
	return experiments.MegaStorm(o, cfg)
}

// FleetMigrationStorm sweeps fleet size × concurrent migrations ×
// infected fraction: each cell quarantines its suspects onto trusted
// hosts under link contention, then sweeps the whole fleet with the
// dedup detector.
func FleetMigrationStorm(o ExperimentOptions, hostCounts, concurrencies []int, infectedFracs []float64) (*experiments.FleetStormResult, error) {
	return experiments.FleetMigrationStorm(o, hostCounts, concurrencies, infectedFracs)
}
