package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// layerReport is one workload's traced breakdown, as layers.json holds it.
type layerReport struct {
	Workload    string             `json:"workload"`
	TracedUnits int                `json:"traced_units"`
	PlainUnits  int                `json:"plain_units"`
	Samples     int64              `json:"samples"`
	NamedFrac   float64            `json:"named_or_gc_frac"` // share of samples charged to a layer or gc
	Layers      []layerShare       `json:"layers"`
	Metrics     map[string]float64 `json:"metrics"`
}

type layerShare struct {
	Name    string  `json:"name"`
	CPUS    float64 `json:"cpu_s"` // per traced unit
	Samples int64   `json:"samples"`
	Share   float64 `json:"share"` // of all samples
}

// layerMetrics computes a workload's per-layer metrics from its traced
// units: profile attribution and resource use per traced unit (mean),
// counts from the first unit, span medians, and the tracing overhead.
func layerMetrics(r *workloadRun) (layerReport, error) {
	traced, plain := r.profiled(true), r.profiled(false)
	if len(traced) == 0 {
		return layerReport{}, fmt.Errorf("%s: no traced units", r.Workload)
	}
	charges := map[string]charge{}
	for _, path := range r.profiles {
		data, err := os.ReadFile(path)
		if err != nil {
			return layerReport{}, err
		}
		p, err := parseProfile(data)
		if err != nil {
			return layerReport{}, fmt.Errorf("%s: %w", path, err)
		}
		attribute(p, charges)
	}
	rep := layerReport{Workload: r.Workload, TracedUnits: len(traced), PlainUnits: len(plain), Metrics: map[string]float64{}}
	n := float64(len(traced))
	m := rep.Metrics
	for _, b := range buckets {
		c := charges[b]
		m[b+".cpu_s"] = float64(c.Nanos) / 1e9 / n
		m[b+".cpu_samples"] = float64(c.Samples)
		rep.Samples += c.Samples
	}
	for _, b := range buckets {
		c := charges[b]
		rep.Layers = append(rep.Layers, layerShare{b, m[b+".cpu_s"], c.Samples, ratio(float64(c.Samples), float64(rep.Samples))})
	}
	rep.NamedFrac = 1 - ratio(float64(charges["other"].Samples), float64(rep.Samples))

	var cpu, wall, alloc, cycles, gcCPU, used float64
	for _, u := range traced {
		cpu += u.CPUS
		wall += u.WallS
		alloc += u.AllocMB
		cycles += float64(u.GCCycles)
		gcCPU += u.gcCPU
		used += u.usedCPU
	}
	m["process.cpu_s"] = cpu / n
	m["process.idle_frac"] = 1 - ratio(cpu, wall*float64(runtime.GOMAXPROCS(0)))
	m["gc.alloc_mb"] = alloc / n
	m["gc.cycles"] = cycles / n
	m["gc.cpu_frac"] = ratio(gcCPU, used)
	for _, c := range countMetrics {
		m[c.name] = r.counts[c.name]
	}
	durations := map[string][]float64{}
	for _, s := range r.spans {
		durations[s.Name] = append(durations[s.Name], s.End-s.Start)
	}
	for _, c := range callNames {
		m["call."+c+".s"] = median(durations[c])
	}
	m["trace.unit_s"] = median(scaledWalls(traced))
	if p := median(scaledWalls(plain)); p > 0 {
		m["trace.overhead_frac"] = m["trace.unit_s"]/p - 1
	}
	return rep, nil
}

// writeTrace computes every workload's layer report and writes
// layers.json and spans.jsonl into dir.
func writeTrace(dir string, runs []*workloadRun) ([]layerReport, error) {
	var reports []layerReport
	var spans strings.Builder
	for _, r := range runs {
		rep, err := layerMetrics(r)
		if err != nil {
			return nil, err
		}
		reports = append(reports, rep)
		for _, s := range r.spans {
			b, err := json.Marshal(s)
			if err != nil {
				return nil, err
			}
			spans.Write(b)
			spans.WriteByte('\n')
		}
	}
	if err := os.WriteFile(filepath.Join(dir, "spans.jsonl"), []byte(spans.String()), 0o644); err != nil {
		return nil, err
	}
	b, err := json.MarshalIndent(reports, "", "  ")
	if err != nil {
		return nil, err
	}
	return reports, os.WriteFile(filepath.Join(dir, "layers.json"), append(b, '\n'), 0o644)
}

func printLayers(w io.Writer, workload string, rep layerReport) {
	m := rep.Metrics
	fmt.Fprintf(w, "%s trace: %d traced + %d plain units, %d samples, %.1f%% charged to a layer or gc; "+
		"tracing overhead %+.1f%% (traced unit_s %.4f s)\n",
		workload, rep.TracedUnits, rep.PlainUnits, rep.Samples, 100*rep.NamedFrac,
		100*m["trace.overhead_frac"], m["trace.unit_s"])
	for _, l := range rep.Layers {
		if l.Samples > 0 {
			fmt.Fprintf(w, "  %-14s %8.4f cpu_s/unit %6d samples %5.1f%%\n", l.Name, l.CPUS, l.Samples, 100*l.Share)
		}
	}
	fmt.Fprintf(w, "  process.cpu_s %.4f, idle_frac %.3f, gc.alloc_mb %.1f, gc.cycles %.1f, gc.cpu_frac %.3f\n",
		m["process.cpu_s"], m["process.idle_frac"], m["gc.alloc_mb"], m["gc.cycles"], m["gc.cpu_frac"])
}
