package experiments

import (
	"fmt"
	"time"

	"cloudskulk/internal/core"
	"cloudskulk/internal/detect"
	"cloudskulk/internal/fleet"
	"cloudskulk/internal/report"
	"cloudskulk/internal/runner"
	"cloudskulk/internal/vnet"
)

// stormHostLinkBandwidth is the host<->host uplink used by the storm
// fleets. It is deliberately a notch above QEMU's 32 MiB/s default
// migration cap so contention becomes visible: one stream is capped by
// QEMU, but a storm converging on one trusted host splits the uplink and
// slows every stream down.
const stormHostLinkBandwidth = 64 << 20

// FleetStormRow aggregates one (hosts × concurrency × infected-fraction)
// configuration over all runs.
type FleetStormRow struct {
	Hosts        int
	Guests       int
	Infected     int
	Concurrent   int
	InfectedFrac float64
	// Coverage is the share of infected guests the post-migration sweep
	// flagged VerdictNested.
	Coverage float64
	// FalsePositives is the mean number of clean guests flagged per run.
	FalsePositives float64
	// MeanMoveSec / MaxMoveSec summarize per-guest migration wall time
	// (virtual) across the storm.
	MeanMoveSec float64
	MaxMoveSec  float64
	// Retries is the mean number of aborted-and-retried migration
	// attempts per run.
	Retries float64
}

// FleetStormResult is the migration-storm sweep table.
type FleetStormResult struct {
	Rows []FleetStormRow
}

// Render formats the sweep as an ASCII table.
func (r *FleetStormResult) Render() string {
	t := report.Table{
		Title: "Fleet migration storm: detection coverage and migration time",
		Headers: []string{"hosts", "guests", "infected", "concurrent",
			"coverage", "false+", "mean mig (s)", "max mig (s)", "retries"},
	}
	for _, row := range r.Rows {
		t.AddRow(
			fmt.Sprintf("%d", row.Hosts),
			fmt.Sprintf("%d", row.Guests),
			fmt.Sprintf("%d", row.Infected),
			fmt.Sprintf("%d", row.Concurrent),
			fmt.Sprintf("%.0f%%", row.Coverage*100),
			report.F2(row.FalsePositives),
			report.F2(row.MeanMoveSec),
			report.F2(row.MaxMoveSec),
			report.F2(row.Retries),
		)
	}
	return t.Render()
}

// stormCell is one run's raw measurements.
type stormCell struct {
	infected int
	detected int
	falsePos int
	moveSecs []float64
	retries  int
}

// FleetMigrationStorm sweeps fleet size × concurrent migrations ×
// infected fraction. Each cell builds its own fleet (one guest per
// untrusted host, the first ⌈frac·guests⌉ infected by the CloudSkulk
// installer), fires a staggered storm of MigrateToTrusted calls so the
// streams contend for the trusted hosts' uplinks, rebinds each rootkit
// to its migrated stack, and then runs the fleet-wide dedup sweep.
// Cells shard across Options.Workers; output is byte-identical for any
// worker count.
func FleetMigrationStorm(o Options, hostCounts, concurrencies []int, infectedFracs []float64) (*FleetStormResult, error) {
	o = o.withDefaults()
	type config struct {
		hosts int
		conc  int
		frac  float64
	}
	var configs []config
	for _, h := range hostCounts {
		for _, c := range concurrencies {
			for _, fr := range infectedFracs {
				configs = append(configs, config{h, c, fr})
			}
		}
	}
	cells, err := runner.Map(len(configs)*o.Runs, o.runnerOptions(), func(i int) (stormCell, error) {
		cfg := configs[i/o.Runs]
		run := i % o.Runs
		label := cellLabel("fleetstorm",
			fmt.Sprintf("h%d", cfg.hosts),
			fmt.Sprintf("c%d", cfg.conc),
			fmt.Sprintf("f%.2f", cfg.frac))
		return stormOnce(o, cfg.hosts, cfg.conc, cfg.frac, perRunSeed(o, label, run))
	})
	if err != nil {
		return nil, err
	}

	res := &FleetStormResult{}
	for ci, cfg := range configs {
		row := FleetStormRow{Hosts: cfg.hosts, Concurrent: cfg.conc, InfectedFrac: cfg.frac}
		var covNum, covDen, moves int
		var sumSec, maxSec float64
		var falsePos, retries int
		for run := 0; run < o.Runs; run++ {
			cell := cells[ci*o.Runs+run]
			covNum += cell.detected
			covDen += cell.infected
			falsePos += cell.falsePos
			retries += cell.retries
			for _, s := range cell.moveSecs {
				sumSec += s
				moves++
				if s > maxSec {
					maxSec = s
				}
			}
			row.Infected = cell.infected
		}
		row.Guests = guestsForHosts(cfg.hosts)
		if covDen > 0 {
			row.Coverage = float64(covNum) / float64(covDen)
		} else {
			row.Coverage = 1
		}
		row.FalsePositives = float64(falsePos) / float64(o.Runs)
		row.Retries = float64(retries) / float64(o.Runs)
		if moves > 0 {
			row.MeanMoveSec = sumSec / float64(moves)
		}
		row.MaxMoveSec = maxSec
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// guestsForHosts mirrors stormOnce's layout: one guest per untrusted
// host, the trailing quarter of hosts trusted.
func guestsForHosts(hosts int) int {
	trusted := hosts / 4
	if trusted < 1 {
		trusted = 1
	}
	return hosts - trusted
}

func stormOnce(o Options, hosts, conc int, frac float64, seed int64) (stormCell, error) {
	flOpts := []fleet.Option{
		fleet.WithHosts(hosts),
		fleet.WithHostLink(vnet.LinkSpec{Bandwidth: stormHostLinkBandwidth, Latency: 500 * time.Microsecond}),
		fleet.WithRetry(3, 2*time.Second),
		fleet.WithBackend(o.Backend),
	}
	if o.Telemetry != nil {
		// Share the experiment-wide registry instead of the fleet's
		// private default one.
		flOpts = append(flOpts, fleet.WithTelemetry(o.Telemetry))
	}
	fl, err := fleet.New(seed, flOpts...)
	if err != nil {
		return stormCell{}, err
	}
	trusted := make(map[string]bool)
	for _, h := range fl.TrustedHosts() {
		trusted[h] = true
	}
	var guests []string
	for _, h := range fl.HostNames() {
		if trusted[h] {
			continue
		}
		name := fmt.Sprintf("g%02d", len(guests))
		if _, err := fl.StartGuest(h, name, o.GuestMemMB); err != nil {
			return stormCell{}, err
		}
		guests = append(guests, name)
	}

	infected := int(frac*float64(len(guests)) + 0.5)
	if frac > 0 && infected < 1 {
		infected = 1
	}
	if infected > len(guests) {
		infected = len(guests)
	}
	rootkits := make(map[string]*core.Rootkit, infected)
	for _, name := range guests[:infected] {
		info, err := fl.Lookup(name)
		if err != nil {
			return stormCell{}, err
		}
		host, err := fl.Host(info.Host)
		if err != nil {
			return stormCell{}, err
		}
		rk, err := core.Installer{Host: host, Migration: fl.Migration()}.Install(
			core.InstallConfig{TargetName: name, RITMName: name + "-x"})
		if err != nil {
			return stormCell{}, err
		}
		rootkits[name] = rk
	}

	// The storm: the first conc guests (infected first — they are the
	// suspects) head for trusted hosts on staggered starts, so their
	// streams overlap and contend.
	if conc > len(guests) {
		conc = len(guests)
	}
	cell := stormCell{infected: infected}
	var moveErr error
	for i, name := range guests[:conc] {
		name := name
		fl.Engine().Schedule(time.Duration(i)*50*time.Millisecond, "storm.migrate", func() {
			rep, err := fl.MigrateToTrusted(name)
			if err != nil {
				if moveErr == nil {
					moveErr = fmt.Errorf("storm move %q: %w", name, err)
				}
				return
			}
			cell.moveSecs = append(cell.moveSecs, rep.Duration.Seconds())
			cell.retries += rep.Retries
		})
	}
	fl.Engine().RunFor(time.Duration(conc) * 50 * time.Millisecond)
	if moveErr != nil {
		return stormCell{}, moveErr
	}

	// The interposition travels with each migrated stack: rebind the
	// rootkits' handles before detection probes them.
	for name, rk := range rootkits {
		info, err := fl.Lookup(name)
		if err != nil {
			return stormCell{}, err
		}
		rk.RITM, rk.Victim = info.Outer, info.Inner
	}

	verdicts, err := fl.SweepDetect(fleet.SweepOptions{
		Pages: o.DetectPages,
		Wait:  o.KSMWait,
		OnAgent: func(guest string, agent *detect.GuestAgent) {
			if rk, ok := rootkits[guest]; ok {
				agent.OnLoad = rk.InterceptFilePushes()
			}
		},
	})
	if err != nil {
		return stormCell{}, err
	}
	for _, v := range verdicts {
		_, isInfected := rootkits[v.Guest]
		switch {
		case isInfected && v.Verdict == detect.VerdictNested:
			cell.detected++
		case !isInfected && v.Verdict == detect.VerdictNested:
			cell.falsePos++
		}
	}
	return cell, nil
}
