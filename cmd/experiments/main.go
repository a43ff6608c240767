// Command experiments regenerates every table and figure of the CloudSkulk
// paper's evaluation, printing each as ASCII.
//
// Usage:
//
//	experiments [-scale full|quick] [-seed N] [-only artefact] [-workers N]
//	            [-backend name]
//
// Artefacts: table1, table1full, fig2, fig3, fig4, table2, table3, table4,
// fig5, fig6, baselines, armsrace, armsrace-matrix, survey, remediation,
// watchdog, fleetstorm, cloudload, megastorm, ablations. Default runs all
// of them.
//
// -backend selects the hypervisor cost profile every testbed is built on
// (default: the paper's kvm-i7-4790 calibration); every artefact runs
// unchanged on any registered backend.
//
// Sweeps shard their cells across -workers goroutines (default GOMAXPROCS);
// the rendered artefacts are byte-identical for any worker count. Live
// progress (cells done/total, cells/sec, ETA) goes to stderr so stdout
// stays clean for the artefacts themselves.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"cloudskulk"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

// progressPrinter returns a sweep-progress callback that redraws one
// stderr status line for the named artefact. Progress goes to stderr so
// stdout carries only the artefacts and stays byte-identical across
// worker counts.
func progressPrinter(name string) func(cloudskulk.SweepProgress) {
	return func(p cloudskulk.SweepProgress) {
		fmt.Fprintf(os.Stderr, "\r\033[K%s: %d/%d cells, %.1f cells/s, ETA %s",
			name, p.Done, p.Total, p.CellsPerSec, p.ETA.Round(time.Second))
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	scale := fs.String("scale", "full", "experiment scale: full (paper) or quick")
	seed := fs.Int64("seed", 1, "simulation seed")
	only := fs.String("only", "", "run a single artefact (table1, fig2, ..., ablations)")
	workers := fs.Int("workers", 0, "parallel sweep workers (default GOMAXPROCS)")
	progress := fs.Bool("progress", true, "print live sweep progress to stderr")
	telemetryPath := fs.String("telemetry", "", "write accumulated metrics as JSON lines to this file")
	backend := fs.String("backend", "",
		"hypervisor backend (cost profile): "+strings.Join(cloudskulk.Backends(), ", ")+
			"; default "+cloudskulk.DefaultBackend)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if _, err := cloudskulk.LookupBackend(*backend); err != nil {
		return err
	}

	var o cloudskulk.ExperimentOptions
	switch *scale {
	case "full":
		o = cloudskulk.DefaultExperimentOptions()
	case "quick":
		o = cloudskulk.QuickExperimentOptions()
	default:
		return fmt.Errorf("unknown scale %q", *scale)
	}
	o.Seed = *seed
	o.Workers = *workers
	o.Backend = *backend
	if *telemetryPath != "" {
		o.Telemetry = cloudskulk.NewTelemetryRegistry()
	}

	artefacts := []struct {
		name string
		run  func() (string, error)
	}{
		{"table1", func() (string, error) {
			return cloudskulk.Table1CVE().Render(), nil
		}},
		{"table1full", func() (string, error) {
			return cloudskulk.Table1CVE().RenderFull(), nil
		}},
		{"fig2", func() (string, error) {
			r, err := cloudskulk.Figure2KernelCompile(o)
			if err != nil {
				return "", err
			}
			return r.Render(), nil
		}},
		{"fig3", func() (string, error) {
			r, err := cloudskulk.Figure3Netperf(o)
			if err != nil {
				return "", err
			}
			return r.Render(), nil
		}},
		{"fig4", func() (string, error) {
			r, err := cloudskulk.Figure4Migration(o)
			if err != nil {
				return "", err
			}
			return r.Render(), nil
		}},
		{"table2", func() (string, error) {
			return cloudskulk.Table2Arithmetic(o).Render(), nil
		}},
		{"table3", func() (string, error) {
			return cloudskulk.Table3Processes(o).Render(), nil
		}},
		{"table4", func() (string, error) {
			return cloudskulk.Table4FileOps(o).Render(), nil
		}},
		{"fig5", func() (string, error) {
			r, err := cloudskulk.Figure5DetectionClean(o)
			if err != nil {
				return "", err
			}
			return r.Render(), nil
		}},
		{"fig6", func() (string, error) {
			r, err := cloudskulk.Figure6DetectionInfected(o)
			if err != nil {
				return "", err
			}
			return r.Render(), nil
		}},
		{"baselines", func() (string, error) {
			r, err := cloudskulk.BaselineComparison(o)
			if err != nil {
				return "", err
			}
			return r.Render(), nil
		}},
		{"armsrace", func() (string, error) {
			r, err := cloudskulk.ArmsRaceSyncCountermeasure(o)
			if err != nil {
				return "", err
			}
			return r.Render(), nil
		}},
		{"armsrace-matrix", func() (string, error) {
			r, err := cloudskulk.ArmsRaceMatrix(o)
			if err != nil {
				return "", err
			}
			return r.Render(), nil
		}},
		{"survey", func() (string, error) {
			r, err := cloudskulk.MultiTenantSurvey(o, 3, 1)
			if err != nil {
				return "", err
			}
			return r.Render(), nil
		}},
		{"remediation", func() (string, error) {
			r, err := cloudskulk.RemediationDrill(o)
			if err != nil {
				return "", err
			}
			return r.Render(), nil
		}},
		{"watchdog", func() (string, error) {
			r, err := cloudskulk.TimeToDetect(o, 10*time.Minute)
			if err != nil {
				return "", err
			}
			return r.Render(), nil
		}},
		{"fleetstorm", func() (string, error) {
			r, err := cloudskulk.FleetMigrationStorm(o, []int{2, 4, 8}, []int{1, 2, 4}, []float64{0.25})
			if err != nil {
				return "", err
			}
			return r.Render(), nil
		}},
		{"cloudload", func() (string, error) {
			cfg := cloudskulk.DefaultCloudLoadConfig()
			if *scale == "quick" {
				cfg = cloudskulk.QuickCloudLoadConfig()
			}
			r, err := cloudskulk.CloudLoad(o, cfg)
			if err != nil {
				return "", err
			}
			return r.Render(), nil
		}},
		{"megastorm", func() (string, error) {
			cfg := cloudskulk.DefaultMegaStormConfig()
			if *scale == "quick" {
				cfg = cloudskulk.QuickMegaStormConfig()
			}
			r, err := cloudskulk.MegaStorm(o, cfg)
			if err != nil {
				return "", err
			}
			return r.Render(), nil
		}},
		{"ablations", func() (string, error) {
			var b strings.Builder
			em := cloudskulk.AblationExitMultiplier(o, []int{1, 4, 9, 18, 36, 72})
			b.WriteString(em.Render() + "\n")
			dr, err := cloudskulk.AblationDirtyRate(o, []float64{100, 2000, 4000, 6000, 7000, 7500, 7900})
			if err != nil {
				return "", err
			}
			b.WriteString(dr.Render() + "\n")
			pp, err := cloudskulk.AblationPrePostCopy(o)
			if err != nil {
				return "", err
			}
			b.WriteString(pp.Render() + "\n")
			ps, err := cloudskulk.AblationProbeSize(o, []int{1, 10, 100, 400})
			if err != nil {
				return "", err
			}
			b.WriteString(ps.Render() + "\n")
			kw, err := cloudskulk.AblationKSMWait(o, []time.Duration{
				10 * time.Millisecond, 100 * time.Millisecond, time.Second, 15 * time.Second,
			})
			if err != nil {
				return "", err
			}
			b.WriteString(kw.Render() + "\n")
			tg, err := cloudskulk.AblationTimingGap(o, []float64{31, 10, 4, 1})
			if err != nil {
				return "", err
			}
			b.WriteString(tg.Render() + "\n")
			mf, err := cloudskulk.AblationMigrationFeatures(o)
			if err != nil {
				return "", err
			}
			b.WriteString(mf.Render())
			return b.String(), nil
		}},
	}

	ran := 0
	names := make([]string, 0, len(artefacts))
	for _, a := range artefacts {
		names = append(names, a.name)
		if *only != "" && a.name != *only {
			continue
		}
		if *progress {
			// The artefact closures read o, so installing a fresh
			// callback here labels each artefact's sweep output.
			o.OnProgress = progressPrinter(a.name)
		}
		out, err := a.run()
		if *progress {
			fmt.Fprint(os.Stderr, "\r\033[K")
		}
		if err != nil {
			return fmt.Errorf("%s: %w", a.name, err)
		}
		fmt.Printf("=== %s ===\n%s\n", a.name, out)
		ran++
	}
	if ran == 0 {
		return fmt.Errorf("unknown artefact %q (valid: %s)", *only, strings.Join(names, ", "))
	}
	if o.Telemetry != nil {
		f, err := os.Create(*telemetryPath)
		if err != nil {
			return err
		}
		if err := o.Telemetry.WriteJSONLines(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "telemetry: wrote metrics to %s\n", *telemetryPath)
	}
	return nil
}
