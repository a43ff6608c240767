package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"time"
)

// workloadRun is one workload's part of one round: its units and set-up
// probes.
type workloadRun struct {
	Workload  string       `json:"workload"`
	Units     []unitRecord `json:"units"`
	SetupS    []float64    `json:"setup_s"`
	SetupRefS float64      `json:"setup_ref_s"` // hostRef time before the probes
	SetupErr  string       `json:"setup_err,omitempty"`
	Sim       []simRow     `json:"sim,omitempty"`

	counts   map[string]float64 // the first unit's, traced runs only
	profiles []string
	spans    []span
}

// unitRecord is one unit as the run record keeps it.
type unitRecord struct {
	Unit     int     `json:"unit"`
	Seed     int64   `json:"seed"`
	Profiled bool    `json:"profiled,omitempty"`
	WallS    float64 `json:"wall_s"`
	RefS     float64 `json:"ref_s"` // hostRef time right before the unit
	PeakRSS  float64 `json:"peak_rss_mb"`
	CPUS     float64 `json:"cpu_s"`
	AllocMB  float64 `json:"alloc_mb"`
	GCCycles uint64  `json:"gc_cycles"`
	SHA256   string  `json:"sha256,omitempty"`
	Err      string  `json:"err,omitempty"`

	gcCPU, usedCPU float64
}

func (r *workloadRun) profiled(want bool) []unitRecord {
	var out []unitRecord
	for _, u := range r.Units {
		if u.Profiled == want {
			out = append(out, u)
		}
	}
	return out
}

// done reports whether the workload has measured enough units. A failed
// unit ends the workload's measuring: the run is incorrect either way. A
// failed set-up probe does not, so every run has at least one unit.
func (r *workloadRun) done(cfg config) bool {
	if len(r.Units) > 0 && r.Units[len(r.Units)-1].Err != "" {
		return true
	}
	return len(r.Units) >= minUnits && sum(walls(r.Units)) >= cfg.seconds
}

// attempted counts the operations the run checked: every unit and every
// set-up probe (a failed probe ends the series).
func (r *workloadRun) attempted() int {
	n := len(r.Units) + len(r.SetupS)
	if r.SetupErr != "" {
		n++
	}
	return n
}

func (r *workloadRun) failed() int { return len(r.errors()) }

func (r *workloadRun) errors() []string {
	var out []string
	for _, u := range r.Units {
		if u.Err != "" {
			out = append(out, fmt.Sprintf("unit %d (seed %d): %s", u.Unit, u.Seed, u.Err))
		}
	}
	if r.SetupErr != "" {
		out = append(out, r.SetupErr)
	}
	return out
}

// scaledWalls returns the units' wall times at nominal host speed.
func scaledWalls(units []unitRecord) []float64 {
	out := make([]float64, len(units))
	for i, u := range units {
		out[i] = scaled(u.WallS, u.RefS)
	}
	return out
}

func (r *workloadRun) e2e() map[string]float64 {
	return map[string]float64{
		"unit_s":      median(scaledWalls(r.Units)),
		"setup_s":     scaled(median(r.SetupS), r.SetupRefS),
		"peak_rss_mb": median(peaks(r.Units)),
	}
}

func (r *workloadRun) addUnit(req request, rep reply, refS float64, cfg config, golden goldenFile) {
	rec := unitRecord{
		Unit: req.Unit, Seed: req.Seed, Profiled: rep.Profile != "", Err: rep.Err,
		WallS: rep.WallS, RefS: refS, PeakRSS: rep.PeakRSSMB, CPUS: rep.CPUS,
		AllocMB: float64(rep.AllocBytes) / (1 << 20), GCCycles: rep.GCCycles,
		gcCPU: rep.GCCPUS, usedCPU: rep.UsedCPUS,
	}
	if rep.Profile != "" {
		r.profiles = append(r.profiles, rep.Profile)
	}
	if rep.Err == "" {
		rec.SHA256 = sha(rep.Render)
		if !cfg.quick {
			if err := golden.check(r.Workload, req.Seed, rep.Render); err != nil {
				rec.Err = err.Error()
			}
		}
		if req.Unit == 0 {
			r.Sim, r.counts = rep.Sim, rep.Counts
		}
	}
	r.Units = append(r.Units, rec)
}

// runRound starts one child per workload, runs each child's set-up probes,
// then drives the children round-robin, one unit in flight at a time, until
// every workload has measured enough units. Each request to a child comes
// right after a timing of the host reference work.
func runRound(cfg config, seed int64, golden goldenFile) ([]*workloadRun, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var children []*child
	defer func() {
		for _, c := range children {
			c.kill()
		}
	}()
	ref := newHostRef()
	runs := make([]*workloadRun, len(cfg.workloads))
	for i, w := range cfg.workloads {
		c, err := startChild(exe, w.name, cfg)
		if err != nil {
			return nil, err
		}
		children = append(children, c)
		runs[i] = &workloadRun{Workload: w.name}
	}

	// Set-up is probed first, in the fresh children: after the units, probe
	// times depend on the heap the units left behind, and spread several
	// times wider from run to run.
	for i, c := range children {
		runs[i].SetupRefS = ref.time()
		rep, err := c.do(request{Op: "setup", Seed: seed})
		if err != nil {
			return nil, err
		}
		runs[i].SetupS, runs[i].SetupErr = rep.Probes, rep.Err
	}

	for {
		progressed := false
		for i, c := range children {
			if runs[i].done(cfg) {
				continue
			}
			u := len(runs[i].Units)
			// A traced run profiles every other unit, so the plain ones
			// in between measure the tracing overhead.
			req := request{Op: "unit", Unit: u, Seed: seed + int64(u), Profile: cfg.trace && u%2 == 0}
			refS := ref.time()
			rep, err := c.do(req)
			if err != nil {
				return nil, err
			}
			runs[i].addUnit(req, rep, refS, cfg, golden)
			progressed = true
		}
		if !progressed {
			break
		}
	}

	for i, c := range children {
		rep, err := c.finish()
		if err != nil {
			return nil, err
		}
		if rep.Err != "" {
			return nil, fmt.Errorf("%s child: %s", c.name, rep.Err)
		}
		for _, s := range rep.Spans {
			s.Workload = c.name
			runs[i].spans = append(runs[i].spans, s)
		}
	}
	return runs, nil
}

// child is one workload's process: the benchmark binary run with -child,
// spoken to in JSON lines over its stdin and stdout.
type child struct {
	name string
	cmd  *exec.Cmd
	in   io.WriteCloser
	out  *bufio.Reader
	pipe *os.File // stdout, for read deadlines
	done bool
}

func startChild(exe, name string, cfg config) (*child, error) {
	args := []string{"-child", name, "-quick=" + strconv.FormatBool(cfg.quick)}
	if cfg.trace {
		args = append(args, "-trace", "1", "-trace-dir", cfg.traceDir)
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s child: %w", name, err)
	}
	pipe, _ := out.(*os.File)
	return &child{name: name, cmd: cmd, in: in, out: bufio.NewReader(out), pipe: pipe}, nil
}

func (c *child) do(req request) (reply, error) {
	b, err := json.Marshal(req)
	if err != nil {
		return reply{}, err
	}
	if _, err := c.in.Write(append(b, '\n')); err != nil {
		return reply{}, fmt.Errorf("%s child: %w", c.name, err)
	}
	if c.pipe != nil {
		if err := c.pipe.SetReadDeadline(time.Now().Add(replyTimeout)); err != nil {
			return reply{}, err
		}
	}
	line, err := c.out.ReadBytes('\n')
	if err != nil {
		return reply{}, fmt.Errorf("%s child: no reply to %q: %w", c.name, req.Op, err)
	}
	var rep reply
	if err := json.Unmarshal(line, &rep); err != nil {
		return reply{}, fmt.Errorf("%s child: bad reply: %w", c.name, err)
	}
	return rep, nil
}

// finish asks the child to exit and waits until it has.
func (c *child) finish() (reply, error) {
	rep, err := c.do(request{Op: "exit"})
	c.in.Close()
	werr := c.cmd.Wait()
	c.done = true
	if err == nil && werr != nil {
		err = fmt.Errorf("%s child: %w", c.name, werr)
	}
	return rep, err
}

// kill ends a child that has not finished and waits until it has.
func (c *child) kill() {
	if c.done {
		return
	}
	c.in.Close()
	_ = c.cmd.Process.Kill() // fails only if the child already exited; Wait reaps it either way
	_ = c.cmd.Wait()
	c.done = true
}
