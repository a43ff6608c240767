package experiments

import (
	"fmt"

	"cloudskulk/internal/cpu"
	"cloudskulk/internal/report"
	"cloudskulk/internal/runner"
	"cloudskulk/internal/sim"
	"cloudskulk/internal/stats"
	"cloudskulk/internal/workload"
)

// levelContext builds a measurement context at a virtualization level with
// the backend's calibrated model and light measurement noise. The vCPU
// counts into o.Telemetry when one is set (SetTelemetry(nil) is the
// detached fast path).
func levelContext(o Options, seed int64, level cpu.Level, memMB int64) *workload.Context {
	prof := o.mustBackend().Profile
	eng := sim.NewEngine(seed)
	ctx := workload.HostContext(eng, prof.CPU, memMB<<20)
	if level != cpu.L0 {
		ctx.VCPU = cpu.NewVCPU(eng, prof.CPU, level)
	}
	ctx.VCPU.Noise = prof.VCPUNoise
	ctx.VCPU.SetTelemetry(o.Telemetry)
	return ctx
}

// levelRunCells enumerates the (level, run) grid in report order; sweeps
// shard it across the worker pool and reassemble by index.
type levelRunCell struct {
	level cpu.Level
	run   int
}

func levelRunCells(runs int) []levelRunCell {
	cells := make([]levelRunCell, 0, len(cpu.Levels)*runs)
	for _, level := range cpu.Levels {
		for run := 0; run < runs; run++ {
			cells = append(cells, levelRunCell{level, run})
		}
	}
	return cells
}

// Figure2Result holds the kernel-compile timings per level.
type Figure2Result struct {
	// Seconds per level, one entry per run.
	Seconds map[cpu.Level][]float64
}

// Figure2KernelCompile reproduces Fig. 2: Linux-kernel compile time at
// L0/L1/L2, with ccache enabled only on L0 (the paper's footnote 1).
func Figure2KernelCompile(o Options) (Figure2Result, error) {
	o = o.withDefaults()
	if _, err := o.resolveBackend(); err != nil {
		return Figure2Result{}, err
	}
	cells := levelRunCells(o.Runs)
	secs, err := runner.Map(len(cells), o.runnerOptions(), func(i int) (float64, error) {
		cl := cells[i]
		ctx := levelContext(o, perRunSeed(o, cellLabel("fig2", cl.level.String()), cl.run), cl.level, o.GuestMemMB)
		k := workload.DefaultKernelCompile(cl.level == cpu.L0)
		k.Units = o.CompileUnits
		d, err := k.Run(ctx)
		if err != nil {
			return 0, fmt.Errorf("fig2 %v run %d: %w", cl.level, cl.run, err)
		}
		// Run-to-run system variance (cron, thermal, page-cache
		// state) that per-operation noise averages away over
		// thousands of compilation units.
		return ctx.Eng.Gauss(d.Seconds(), 0.015), nil
	})
	if err != nil {
		return Figure2Result{}, err
	}
	res := Figure2Result{Seconds: make(map[cpu.Level][]float64, 3)}
	for i, cl := range cells {
		res.Seconds[cl.level] = append(res.Seconds[cl.level], secs[i])
	}
	return res, nil
}

// Render draws the figure as a log-scale bar chart with the paper-style
// percentage labels.
func (r Figure2Result) Render() string {
	c := report.BarChart{
		Title: "Fig 2: Linux kernel compile timing",
		Unit:  "s",
	}
	prev := 0.0
	for _, l := range cpu.Levels {
		s, _ := stats.Summarize(r.Seconds[l])
		note := fmt.Sprintf("rsd %.1f%%", s.RelStddev*100)
		if prev > 0 {
			note = report.Pct(stats.PercentChange(prev, s.Mean)) + " vs layer below, " + note
		}
		c.Add(l.String(), s.Mean, note)
		prev = s.Mean
	}
	return c.Render()
}

// Figure3Result holds netperf throughput per level.
type Figure3Result struct {
	// Mbps per level, one entry per run.
	Mbps map[cpu.Level][]float64
}

// Figure3Netperf reproduces Fig. 3: netperf TCP stream throughput at
// L0/L1/L2, 5 consecutive runs averaged.
func Figure3Netperf(o Options) (Figure3Result, error) {
	o = o.withDefaults()
	if _, err := o.resolveBackend(); err != nil {
		return Figure3Result{}, err
	}
	link := int64(2) << 30 // intra-host virtio path
	cells := levelRunCells(o.Runs)
	mbps, err := runner.Map(len(cells), o.runnerOptions(), func(i int) (float64, error) {
		cl := cells[i]
		ctx := levelContext(o, perRunSeed(o, cellLabel("fig3", cl.level.String()), cl.run), cl.level, 64)
		return workload.DefaultNetperf().Run(ctx, link), nil
	})
	if err != nil {
		return Figure3Result{}, err
	}
	res := Figure3Result{Mbps: make(map[cpu.Level][]float64, 3)}
	for i, cl := range cells {
		res.Mbps[cl.level] = append(res.Mbps[cl.level], mbps[i])
	}
	return res, nil
}

// Render draws the figure.
func (r Figure3Result) Render() string {
	c := report.BarChart{
		Title: "Fig 3: Netperf TCP stream throughput",
		Unit:  "Mbit/s",
	}
	prev := 0.0
	for _, l := range cpu.Levels {
		s, _ := stats.Summarize(r.Mbps[l])
		note := fmt.Sprintf("rsd %.2f%%", s.RelStddev*100)
		if prev > 0 {
			note = report.Pct(stats.PercentChange(prev, s.Mean)) + " vs layer below, " + note
		}
		c.Add(l.String(), s.Mean, note)
		prev = s.Mean
	}
	return c.Render()
}

// lmbenchColumn is one level's measurements for a lmbench-style table:
// operation names (identical across levels) plus one value per operation.
type lmbenchColumn struct {
	names []string
	vals  []float64
}

// Table2Result holds the lmbench arithmetic table (ns per op).
type Table2Result struct {
	Ops   []string
	Nanos map[cpu.Level][]float64
}

// Table2Arithmetic reproduces Table II.
func Table2Arithmetic(o Options) Table2Result {
	o = o.withDefaults()
	cols, err := runner.Map(len(cpu.Levels), o.runnerOptions(), func(i int) (lmbenchColumn, error) {
		level := cpu.Levels[i]
		ctx := levelContext(o, perRunSeed(o, "table2", int(level)), level, 64)
		var col lmbenchColumn
		for _, r := range workload.RunLmbench(ctx, workload.ArithmeticOps(), o.LmbenchReps) {
			col.names = append(col.names, r.Op.Name)
			col.vals = append(col.vals, r.Mean.Nanoseconds())
		}
		return col, nil
	})
	if err != nil {
		panic(err) // cells are error-free; only a cell panic reaches here
	}
	res := Table2Result{Ops: cols[0].names, Nanos: make(map[cpu.Level][]float64, 3)}
	for i, level := range cpu.Levels {
		res.Nanos[level] = cols[i].vals
	}
	return res
}

// Render draws Table II in the paper's layout.
func (r Table2Result) Render() string {
	t := report.Table{
		Title:   "TABLE II: lmbench arithmetic operations - times in nanoseconds",
		Headers: append([]string{"Config"}, r.Ops...),
	}
	for _, l := range cpu.Levels {
		row := []string{l.String()}
		for _, v := range r.Nanos[l] {
			row = append(row, report.F2(v))
		}
		t.AddRow(row...)
	}
	return t.Render()
}

// Table3Result holds the lmbench process table (µs per op).
type Table3Result struct {
	Ops    []string
	Micros map[cpu.Level][]float64
}

// Table3Processes reproduces Table III.
func Table3Processes(o Options) Table3Result {
	o = o.withDefaults()
	cols, err := runner.Map(len(cpu.Levels), o.runnerOptions(), func(i int) (lmbenchColumn, error) {
		level := cpu.Levels[i]
		ctx := levelContext(o, perRunSeed(o, "table3", int(level)), level, 64)
		var col lmbenchColumn
		for _, r := range workload.RunLmbench(ctx, workload.ProcessOps(), o.LmbenchReps/10+1) {
			col.names = append(col.names, r.Op.Name)
			col.vals = append(col.vals, r.Mean.Microseconds())
		}
		return col, nil
	})
	if err != nil {
		panic(err)
	}
	res := Table3Result{Ops: cols[0].names, Micros: make(map[cpu.Level][]float64, 3)}
	for i, level := range cpu.Levels {
		res.Micros[level] = cols[i].vals
	}
	return res
}

// Render draws Table III.
func (r Table3Result) Render() string {
	t := report.Table{
		Title:   "TABLE III: lmbench processes - times in microseconds",
		Headers: append([]string{"Config"}, r.Ops...),
	}
	for _, l := range cpu.Levels {
		row := []string{l.String()}
		for _, v := range r.Micros[l] {
			row = append(row, report.F2(v))
		}
		t.AddRow(row...)
	}
	return t.Render()
}

// Table4Result holds the file-op table (operations per second).
type Table4Result struct {
	// PerSec[level] parallels workload.FileOps() order.
	Labels []string
	PerSec map[cpu.Level][]float64
}

// Table4FileOps reproduces Table IV.
func Table4FileOps(o Options) Table4Result {
	o = o.withDefaults()
	cols, err := runner.Map(len(cpu.Levels), o.runnerOptions(), func(i int) (lmbenchColumn, error) {
		level := cpu.Levels[i]
		ctx := levelContext(o, perRunSeed(o, "table4", int(level)), level, 64)
		var col lmbenchColumn
		for _, r := range workload.RunFileOps(ctx, o.LmbenchReps/10+1) {
			col.names = append(col.names, r.FileOp.Op.Name)
			col.vals = append(col.vals, r.PerSec)
		}
		return col, nil
	})
	if err != nil {
		panic(err)
	}
	res := Table4Result{Labels: cols[0].names, PerSec: make(map[cpu.Level][]float64, 3)}
	for i, level := range cpu.Levels {
		res.PerSec[level] = cols[i].vals
	}
	return res
}

// Render draws Table IV.
func (r Table4Result) Render() string {
	t := report.Table{
		Title:   "TABLE IV: lmbench file system latency - file creations/deletions per second",
		Headers: append([]string{"Config"}, r.Labels...),
	}
	for _, l := range cpu.Levels {
		row := []string{l.String()}
		for _, v := range r.PerSec[l] {
			row = append(row, report.Comma(int64(v)))
		}
		t.AddRow(row...)
	}
	return t.Render()
}
