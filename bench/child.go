package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"
	"time"

	"cloudskulk"
)

// request is one parent-to-child message.
type request struct {
	Op      string `json:"op"` // "unit", "setup" or "exit"
	Unit    int    `json:"unit"`
	Seed    int64  `json:"seed"`
	Profile bool   `json:"profile,omitempty"` // trace this unit: CPU profile + telemetry
}

// reply is the child's answer to one request. Fields not relevant to the
// request's op stay empty.
type reply struct {
	Err string `json:"err,omitempty"`

	// "unit"
	WallS      float64            `json:"wall_s,omitempty"`
	CPUS       float64            `json:"cpu_s,omitempty"` // getrusage user+system
	AllocBytes uint64             `json:"alloc_bytes,omitempty"`
	GCCycles   uint64             `json:"gc_cycles,omitempty"`
	GCCPUS     float64            `json:"gc_cpu_s,omitempty"`    // runtime/metrics GC CPU estimate
	UsedCPUS   float64            `json:"used_cpu_s,omitempty"`  // runtime/metrics non-idle CPU estimate
	PeakRSSMB  float64            `json:"peak_rss_mb,omitempty"` // resident high-water mark during the unit
	Render     string             `json:"render,omitempty"`
	Sim        []simRow           `json:"sim,omitempty"`
	Counts     map[string]float64 `json:"counts,omitempty"`
	Profile    string             `json:"profile,omitempty"`

	// "setup"
	Probes []float64 `json:"probes,omitempty"`

	// "exit"
	Spans []span `json:"spans,omitempty"`
}

// span is one harness call, timed in seconds since the child started.
type span struct {
	Workload string  `json:"workload,omitempty"`
	ID       int     `json:"id"`
	Parent   int     `json:"parent"`
	Unit     string  `json:"unit"`
	Name     string  `json:"name"`
	Start    float64 `json:"start_s"`
	End      float64 `json:"end_s"`
}

// harness is one child's state: the workload's scale and, in a traced
// run, the span log and the running unit's telemetry registry.
type harness struct {
	workload string
	quick    bool
	workers  int
	traceDir string // "" when the run is not traced

	tele   *cloudskulk.TelemetryRegistry // the traced unit's registry, else nil
	ctx    context.Context               // profiler labels of the running unit
	start  time.Time
	unitID string
	spans  []span
	open   int // id of the innermost open span, 0 if none
}

// Set-up probing: at least minProbes probes, then more until probeSeconds
// of probing or maxProbes, so millisecond set-ups get enough samples for a
// steady median while the two-second megastorm set-up stays affordable.
const (
	minProbes    = 3
	maxProbes    = 50
	probeSeconds = 2.0
)

// sweepWorkers is the experiment worker count: one per CPU, at most 4.
func sweepWorkers() int { return min(runtime.NumCPU(), 4) }

// childMain serves one workload's requests, one JSON line each way, until
// the parent asks it to exit.
func childMain(name string, quick bool, traceDir string, in io.Reader, out io.Writer) error {
	w, err := lookupWorkload(name)
	if err != nil {
		return err
	}
	h := &harness{workload: name, quick: quick, workers: sweepWorkers(), traceDir: traceDir,
		ctx: context.Background(), start: time.Now()}
	enc := json.NewEncoder(out)
	sc := bufio.NewScanner(in)
	for sc.Scan() {
		var req request
		if err := json.Unmarshal(sc.Bytes(), &req); err != nil {
			return fmt.Errorf("bad request: %w", err)
		}
		var rep reply
		switch req.Op {
		case "unit":
			rep = h.unit(w, req)
		case "setup":
			rep = h.setup(w, req.Seed)
		case "exit":
			rep.Spans = h.spans
			return enc.Encode(rep)
		default:
			return fmt.Errorf("unknown request %q", req.Op)
		}
		if err := enc.Encode(rep); err != nil {
			return err
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return errors.New("parent closed the pipe without an exit request")
}

// unit runs one unit and measures it. A traced unit runs under a CPU
// profile and a fresh telemetry registry; an untraced one carries neither.
func (h *harness) unit(w workloadDef, req request) reply {
	h.unitID = "u" + strconv.Itoa(req.Unit)
	h.tele = nil
	runtime.GC()

	var rep reply
	var prof *os.File
	if req.Profile {
		h.tele = cloudskulk.NewTelemetryRegistry()
		rep.Profile = filepath.Join(h.traceDir, fmt.Sprintf("%s-u%03d.pprof", w.name, req.Unit))
		f, err := os.Create(rep.Profile)
		if err != nil {
			return reply{Err: err.Error()}
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return reply{Err: err.Error()}
		}
		prof = f
	}

	if err := resetPeakRSS(); err != nil {
		return reply{Err: err.Error()}
	}
	before := readUsage()
	start := time.Now()
	var out unitOutput
	err := h.labelled("unit", func() (err error) {
		out, err = w.run(h, req.Seed)
		return err
	})
	rep.WallS = time.Since(start).Seconds()
	after := readUsage()

	if prof != nil {
		pprof.StopCPUProfile()
		if cerr := prof.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	if err == nil {
		rep.PeakRSSMB, err = peakRSSMB()
	}
	rep.CPUS = after.cpu - before.cpu
	rep.AllocBytes = after.allocBytes - before.allocBytes
	rep.GCCycles = after.gcCycles - before.gcCycles
	rep.GCCPUS = after.gcCPU - before.gcCPU
	rep.UsedCPUS = after.usedCPU - before.usedCPU
	if err != nil {
		rep.Err = err.Error()
		return rep
	}
	rep.Render, rep.Sim = out.render, out.sim
	if h.tele != nil {
		rep.Counts = telemetryCounts(h.tele)
		for k, v := range out.counts {
			rep.Counts[k] = v
		}
	}
	return rep
}

// setup times the workload's set-up probe repeatedly; probe p uses seed+p.
func (h *harness) setup(w workloadDef, seed int64) reply {
	var rep reply
	spent := 0.0
	for p := 0; p < maxProbes && (p < minProbes || spent < probeSeconds); p++ {
		h.unitID = "setup" + strconv.Itoa(p)
		h.tele = nil
		runtime.GC()
		start := time.Now()
		err := h.labelled("setup", func() error { return w.setup(h, seed+int64(p)) })
		d := time.Since(start).Seconds()
		if err != nil {
			return reply{Err: fmt.Sprintf("set-up probe %d: %v", p, err)}
		}
		rep.Probes = append(rep.Probes, d)
		spent += d
	}
	return rep
}

// labelled runs fn as the root span of a unit or probe, with the workload
// and unit as profiler labels when tracing, and turns a panic into an
// error so one bad unit is counted as failed instead of ending the run.
func (h *harness) labelled(name string, fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v\n%s", r, debug.Stack())
		}
	}()
	h.open = 0
	if h.traceDir == "" {
		return fn()
	}
	pprof.Do(context.Background(), pprof.Labels("workload", h.workload, "unit", h.unitID), func(ctx context.Context) {
		h.ctx = ctx
		h.span(name, func() { err = fn() })
	})
	return err
}

// call runs one call into the program under test. When tracing it is a
// span and carries a "call" profiler label, which goroutines the program
// starts (runner.Map workers) inherit.
func call[T any](h *harness, name string, fn func() (T, error)) (T, error) {
	if h.traceDir == "" {
		return fn()
	}
	var v T
	var err error
	pprof.Do(h.ctx, pprof.Labels("call", name), func(context.Context) {
		h.span(name, func() { v, err = fn() })
	})
	return v, err
}

// span records fn as a span under the innermost open one.
func (h *harness) span(name string, fn func()) {
	id := len(h.spans) + 1
	h.spans = append(h.spans, span{ID: id, Parent: h.open, Unit: h.unitID, Name: name,
		Start: time.Since(h.start).Seconds()})
	parent := h.open
	h.open = id
	fn()
	h.open = parent
	h.spans[id-1].End = time.Since(h.start).Seconds()
}

// usage is a point-in-time reading of the process's resource counters.
type usage struct {
	cpu        float64 // user+system seconds (getrusage)
	allocBytes uint64
	gcCycles   uint64
	gcCPU      float64
	usedCPU    float64
}

func readUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF with a valid pointer
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(s)
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return usage{
		cpu:        tv(ru.Utime) + tv(ru.Stime),
		allocBytes: s[0].Value.Uint64(),
		gcCycles:   s[1].Value.Uint64(),
		gcCPU:      s[2].Value.Float64(),
		usedCPU:    s[3].Value.Float64() - s[4].Value.Float64(),
	}
}

// resetPeakRSS restarts the process's resident high-water mark (VmHWM) at
// its current resident size, so each unit's peak is read on its own: a
// median of per-unit peaks is steadier than one lifetime maximum, which
// depends on where GC cycles happened to fall.
func resetPeakRSS() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	return nil
}

// peakRSSMB reads the process's high-water resident set (VmHWM).
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("peak RSS: no VmHWM in /proc/self/status")
}

// telemetryCounts reads the per-layer work counts off a unit's registry.
// Labelled series are summed under their base name; histograms contribute
// their sum (rounds, pages).
func telemetryCounts(reg *cloudskulk.TelemetryRegistry) map[string]float64 {
	sum := map[string]float64{}
	for _, m := range reg.Snapshot() {
		name, _, _ := strings.Cut(m.Name, "{")
		if m.Type == "histogram" {
			sum[name] += float64(m.Sum)
		} else {
			sum[name] += float64(m.Value)
		}
	}
	scanned, merges := sum["ksm_pages_scanned_total"], sum["ksm_merges_total"]
	return map[string]float64{
		"ksm.pages_scanned":           scanned,
		"ksm.merges":                  merges,
		"ksm.merge_per_scan":          ratio(merges, scanned),
		"migrate.rounds":              sum["migrate_rounds"],
		"migrate.pages":               sum["migrate_pages"],
		"migrate.wire_mb":             sum["migrate_wire_bytes_total"] / (1 << 20),
		"vnet.flows":                  sum["vnet_flows_total"],
		"vnet.flows_contended":        sum["vnet_flow_contended_total"],
		"kvm.vms_created":             sum["kvm_vms_created_total"],
		"fleet.placements":            sum["fleet_placements_total"],
		"fleet.migrations":            sum["fleet_migrations_total"],
		"controlplane.jobs_submitted": sum["cp_jobs_submitted_total"],
		"controlplane.jobs_succeeded": sum["cp_jobs_succeeded_total"],
	}
}
