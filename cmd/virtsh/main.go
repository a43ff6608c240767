// Command virtsh is a virsh-like shell over a simulated host: it reads
// management commands from stdin (or a script via -f) and executes them
// against one fresh simulation, printing each result. Because the host is
// simulated and in-memory, a session *is* the lifetime of the world —
// great for scripting demos and reproducing management-plane flows.
//
// Example session:
//
//	define {"name":"web","memory_mb":1024,"vcpus":1,"kvm":true}
//	start web
//	list
//	reboot web
//	destroy web
//
// With -hosts N the session runs against an N-host fleet instead of a
// single machine, and fleet-level commands become available alongside the
// usual domain commands (which then operate on the first host, h00):
//
//	hosts                          list hosts, trust tags, free memory
//	link down <host>               take every fabric link of <host> down
//	link up <host>                 bring them back
//	fleet spawn <host> <guest> <memMB>
//	fleet migrate <guest> <host>   cross-host live migration
//	fleet guests                   list guests and their placement
//
// A fleet session also carries a control plane — the tenant-facing
// management API. `tenant add`/`tenant list` manage accounts; `cp`
// submits API requests in the canonical wire form (mutations become
// async jobs, reads answer immediately); `cp jobs`, `cp cancel`, and
// `cp drain` watch and settle the job queue:
//
//	tenant add acme 4 256 2        quota: 4 VMs, 256 MB, 2 jobs
//	cp deploy acme web 64          -> job-00000001 queued
//	cp drain                       run the clock until jobs settle
//	cp list acme                   web  64 MB  running  on h02
//
// The adversarial scenario engine is reachable from any session:
// `scenario strategies [n]` prints seeded attacker strategies in their
// wire form, `scenario detectors` the detector roster, and
// `scenario matrix` runs the full strategies-times-detectors coverage
// matrix on the session's backend — all pure functions of -seed and
// -backend.
//
// Every session carries a telemetry registry wired through the whole
// stack; `stats` snapshots it (Prometheus text format) and `trace` renders
// completed migrations as span trees. `help` lists everything.
//
// Usage:
//
//	virtsh [-seed N] [-hosts N] [-backend name] [-f script]
//
// -backend builds the session's host(s) on the named hypervisor cost
// profile (default: the paper's kvm-i7-4790); `backends` lists the
// registry and shows each host's assignment.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"cloudskulk/internal/controlplane"
	"cloudskulk/internal/experiments"
	"cloudskulk/internal/fleet"
	"cloudskulk/internal/hv"
	"cloudskulk/internal/kvm"
	"cloudskulk/internal/mem"
	"cloudskulk/internal/migrate"
	"cloudskulk/internal/scenario"
	"cloudskulk/internal/sim"
	"cloudskulk/internal/telemetry"
	"cloudskulk/internal/virtman"
	"cloudskulk/internal/vnet"

	_ "cloudskulk/internal/hv/backends"
)

// sessionCommands are the shell-level commands layered over virtman's
// domain commands. The `help` output and the dispatch below both follow
// this table (TestHelpListsEveryCommand pins the coverage).
var sessionCommands = []struct{ usage, desc string }{
	{"stats", "telemetry snapshot (Prometheus text format)"},
	{"trace", "completed migrations as span trees"},
	{"backends", "list registered hypervisor backends and host assignments"},
	{"hosts", "list hosts, trust tags, free memory (fleet)"},
	{"link down <host>", "take every fabric link of <host> down (fleet)"},
	{"link up <host>", "bring them back (fleet)"},
	{"fleet spawn <host> <guest> <memMB>", "place and boot a guest (fleet)"},
	{"fleet migrate <guest> <host>", "cross-host live migration (fleet)"},
	{"fleet guests", "list guests and their placement (fleet)"},
	{"tenant add <name> [vms memMB jobs]", "create a tenant account, optionally quota-bounded (fleet)"},
	{"tenant list", "list tenants and their usage against quota (fleet)"},
	{"cp <request>", "control-plane API call: deploy/stop/migrate/snapshot/list/usage (fleet)"},
	{"cp jobs", "list control-plane jobs and their states (fleet)"},
	{"cp cancel <job>", "cancel a still-queued job (fleet)"},
	{"cp drain", "run the clock until every job reaches a terminal state (fleet)"},
	{"scenario strategies [n]", "generate n seeded attacker strategies in wire form (default 5)"},
	{"scenario detectors", "list the detector roster the arms-race matrix runs"},
	{"scenario matrix", "strategies x detectors coverage matrix on this session's backend"},
	{"shard info", "sharded-world sizes and synchronization parameters"},
	{"shard spawn <memMB>", "fork a guest from a golden image and show the COW bookkeeping"},
	{"shard megastorm", "quick sharded-cloud run: provision, churn, migrate, audit"},
	{"quit", "end the session (also: exit)"},
}

// sessionHelp renders virtman's domain commands followed by the
// session-level ones.
func sessionHelp() string {
	var b strings.Builder
	b.WriteString("Domain commands:\n")
	b.WriteString(virtman.Help())
	b.WriteString("\nSession commands:\n")
	width := 0
	for _, c := range sessionCommands {
		if len(c.usage) > width {
			width = len(c.usage)
		}
	}
	for _, c := range sessionCommands {
		fmt.Fprintf(&b, "%-*s  %s\n", width, c.usage, c.desc)
	}
	return b.String()
}

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "virtsh:", err)
		os.Exit(1)
	}
}

func run(args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("virtsh", flag.ContinueOnError)
	seed := fs.Int64("seed", 1, "simulation seed")
	hosts := fs.Int("hosts", 0, "run against an N-host fleet instead of one machine")
	script := fs.String("f", "", "script file (default: stdin)")
	backendName := fs.String("backend", "",
		"hypervisor backend (cost profile): "+strings.Join(hv.Names(), ", ")+
			"; default "+hv.DefaultName)
	if err := fs.Parse(args); err != nil {
		return err
	}
	backend, err := hv.Lookup(*backendName)
	if err != nil {
		return err
	}

	var (
		host  *kvm.Host
		fl    *fleet.Fleet
		plane *controlplane.Plane
		reg   *telemetry.Registry
		spans *telemetry.SpanTracer
	)
	if *hosts > 0 {
		fl, err = fleet.New(*seed, fleet.WithHosts(*hosts), fleet.WithBackend(*backendName))
		if err != nil {
			return err
		}
		if host, err = fl.Host(fl.HostNames()[0]); err != nil {
			return err
		}
		plane = controlplane.New(fl, controlplane.Config{})
		reg, spans = fl.Telemetry(), fl.Spans()
	} else {
		eng := sim.NewEngine(*seed)
		network := vnet.New(eng)
		if host, err = kvm.NewHostWithBackend(eng, network, "host", backend); err != nil {
			return err
		}
		me := migrate.NewEngine(eng, network)
		host.SetMigrationService(me)
		reg = telemetry.NewRegistry()
		spans = telemetry.NewSpanTracer(eng)
		host.SetTelemetry(reg)
		network.SetTelemetry(reg)
		me.SetTelemetry(reg)
		me.SetSpans(spans)
	}
	mgr := virtman.NewManager(host)

	input := stdin
	if *script != "" {
		f, err := os.Open(*script)
		if err != nil {
			return err
		}
		defer func() { _ = f.Close() }()
		input = f
	}

	sc := bufio.NewScanner(input)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if line == "quit" || line == "exit" {
			break
		}
		var (
			out     string
			handled bool
			err     error
		)
		switch line {
		case "help":
			out, handled = sessionHelp(), true
		case "stats":
			out, handled = reg.PromText(), true
			if out == "" {
				out = "No statistics recorded yet.\n"
			}
		case "trace":
			out, handled = spans.Tree(), true
			if out == "" {
				out = "No spans recorded yet.\n"
			}
		case "backends":
			out, handled = backendsList(fl, host), true
		default:
			out, handled, err = scenarioExecute(*seed, backend.Name, line)
			if !handled {
				out, handled, err = shardExecute(*seed, backend.Name, line)
			}
			if !handled {
				out, handled, err = fleetExecute(fl, line)
			}
			if !handled {
				out, handled, err = planeExecute(plane, line)
			}
		}
		if !handled {
			out, err = virtman.Execute(mgr, line)
		}
		if err != nil {
			fmt.Fprintf(stdout, "error: %v\n", err)
			continue
		}
		if out != "" {
			fmt.Fprint(stdout, out)
		}
	}
	return sc.Err()
}

// backendsList renders the backend registry (default starred) followed by
// the session's host-to-backend assignments.
func backendsList(fl *fleet.Fleet, host *kvm.Host) string {
	var b strings.Builder
	b.WriteString("Registered backends:\n")
	width := 0
	for _, be := range hv.All() {
		if len(be.Name) > width {
			width = len(be.Name)
		}
	}
	for _, be := range hv.All() {
		marker := " "
		if be.Name == hv.DefaultName {
			marker = "*"
		}
		fmt.Fprintf(&b, "%s %-*s  %s\n", marker, width, be.Name, be.Description)
	}
	b.WriteString("Host assignments:\n")
	if fl != nil {
		for _, name := range fl.HostNames() {
			h, err := fl.Host(name)
			if err != nil {
				continue
			}
			fmt.Fprintf(&b, "  %s  %s\n", name, h.Backend().Name)
		}
		return b.String()
	}
	fmt.Fprintf(&b, "  %s  %s\n", host.Name(), host.Backend().Name)
	return b.String()
}

// scenarioExecute intercepts `scenario ...` commands — the attacker/detector
// arms-race surface. Strategies and the coverage matrix derive from the
// session seed and backend alone, so they replay byte-identically; the
// matrix builds its own per-cell worlds and leaves the session's host
// untouched.
func scenarioExecute(seed int64, backend, line string) (out string, handled bool, err error) {
	f := strings.Fields(line)
	if f[0] != "scenario" {
		return "", false, nil
	}
	switch {
	case (len(f) == 2 || len(f) == 3) && f[1] == "strategies":
		n := 5
		if len(f) == 3 {
			n, err = strconv.Atoi(f[2])
			if err != nil || n <= 0 {
				return "", true, fmt.Errorf("scenario strategies: count must be a positive integer, got %q", f[2])
			}
		}
		return scenario.RenderSpecs(scenario.Generate(seed, n)) + "\n", true, nil
	case len(f) == 2 && f[1] == "detectors":
		var b strings.Builder
		for _, name := range scenario.RosterNames() {
			fmt.Fprintf(&b, "%s\n", name)
		}
		return b.String(), true, nil
	case len(f) == 2 && f[1] == "matrix":
		r, err := scenario.RunMatrix(scenario.MatrixConfig{
			Seed:     seed,
			Backends: []string{backend},
			Workers:  1,
		})
		if err != nil {
			return "", true, err
		}
		return r.Render(), true, nil
	}
	return "", true, fmt.Errorf("unknown scenario command %q", line)
}

// shardExecute intercepts `shard ...` commands — the sharded-world and
// copy-on-write golden-image surface. Everything here is a pure function
// of the session seed and backend: `info` prints the grid sizes, `spawn`
// demonstrates the COW fork bookkeeping on a golden image, and
// `megastorm` runs the quick-scale sharded cloud end to end.
func shardExecute(seed int64, backend, line string) (out string, handled bool, err error) {
	f := strings.Fields(line)
	if f[0] != "shard" {
		return "", false, nil
	}
	switch {
	case len(f) == 2 && f[1] == "info":
		var b strings.Builder
		render := func(label string, c experiments.MegaStormConfig) {
			fmt.Fprintf(&b, "%s: %d shards x %d hosts x %d guests = %d guests on %d hosts, %d MB golden image\n",
				label, c.Shards, c.HostsPerShard, c.GuestsPerHost,
				c.Shards*c.HostsPerShard*c.GuestsPerHost, c.Shards*c.HostsPerShard, c.GuestMemMB)
		}
		render("quick", experiments.QuickMegaStormConfig())
		render("full ", experiments.DefaultMegaStormConfig())
		b.WriteString("sync: conservative rounds, lookahead = inter-shard link latency (2ms),\n")
		b.WriteString("      exchange order (At, From, Seq) — artefacts byte-identical at any worker count\n")
		return b.String(), true, nil
	case len(f) == 3 && f[1] == "spawn":
		memMB, err := strconv.ParseInt(f[2], 10, 64)
		if err != nil || memMB <= 0 || memMB > 4096 {
			return "", true, fmt.Errorf("shard spawn: memMB must be in 1..4096, got %q", f[2])
		}
		golden := mem.NewSpace("golden", memMB<<20)
		golden.FillRandom(sim.NewRand(seed), 0.25)
		tmpl := mem.Freeze("golden", golden)
		fork := mem.SpawnFrom("guest", tmpl)
		var b strings.Builder
		fmt.Fprintf(&b, "template: %d pages, hash %016x\n", tmpl.NumPages(), tmpl.ContentHash())
		fmt.Fprintf(&b, "fork:     shares all pages, hash %016x, materialized chunks %d\n",
			fork.ContentHash(), fork.MaterializedChunks())
		if _, err := fork.Write(0, 0xC0FFEE); err != nil {
			return "", true, err
		}
		copies := fork.ForkStats()
		fmt.Fprintf(&b, "write(0): hash %016x, materialized chunks %d (copied %d)\n",
			fork.ContentHash(), fork.MaterializedChunks(), copies)
		fmt.Fprintf(&b, "template: untouched, hash %016x, %d spawns\n", tmpl.ContentHash(), tmpl.Spawns())
		return b.String(), true, nil
	case len(f) == 2 && f[1] == "megastorm":
		r, err := experiments.MegaStorm(experiments.Options{Seed: seed, Backend: backend, Workers: 1},
			experiments.QuickMegaStormConfig())
		if err != nil {
			return "", true, err
		}
		return r.Render(), true, nil
	}
	return "", true, fmt.Errorf("unknown shard command %q", line)
}

// planeExecute intercepts control-plane session commands (`tenant ...`
// and `cp ...`); everything else falls through. Mutations submit async
// jobs that sit queued until `cp drain` (or any other engine activity)
// advances the virtual clock — the asynchrony is the point.
func planeExecute(p *controlplane.Plane, line string) (out string, handled bool, err error) {
	f := strings.Fields(line)
	if f[0] != "tenant" && f[0] != "cp" {
		return "", false, nil
	}
	if p == nil {
		return "", true, fmt.Errorf("%q needs a fleet session (run with -hosts N)", f[0])
	}
	var b strings.Builder
	switch {
	case f[0] == "tenant" && (len(f) == 3 || len(f) == 6) && f[1] == "add":
		q := controlplane.Quota{}
		if len(f) == 6 {
			vms, err1 := strconv.Atoi(f[3])
			mem, err2 := strconv.ParseInt(f[4], 10, 64)
			jobs, err3 := strconv.Atoi(f[5])
			if err1 != nil || err2 != nil || err3 != nil {
				return "", true, fmt.Errorf("tenant add: quota must be three integers (vms memMB jobs)")
			}
			q = controlplane.Quota{MaxVMs: vms, MaxMemMB: mem, MaxJobs: jobs}
		}
		if err := p.CreateTenant(f[2], q); err != nil {
			return "", true, err
		}
		return fmt.Sprintf("tenant %s created\n", f[2]), true, nil
	case f[0] == "tenant" && len(f) == 2 && f[1] == "list":
		for _, name := range p.Tenants() {
			u, err := p.TenantUsage(name)
			if err != nil {
				return "", true, err
			}
			fmt.Fprintf(&b, "%s  vms %d/%d  mem %d/%d MB  jobs %d/%d\n",
				name, u.VMs, u.Quota.MaxVMs, u.MemMB, u.Quota.MaxMemMB, u.ActiveJobs, u.Quota.MaxJobs)
		}
		return b.String(), true, nil
	case f[0] == "cp" && len(f) == 2 && f[1] == "jobs":
		for _, j := range p.Jobs() {
			fmt.Fprintf(&b, "%s  %-9s  %s", j.ID, j.State, j.Request.Render())
			if j.Host != "" {
				fmt.Fprintf(&b, "  -> %s", j.Host)
			}
			if j.Retries > 0 {
				fmt.Fprintf(&b, "  (%d retries)", j.Retries)
			}
			if j.Err != nil {
				fmt.Fprintf(&b, "  [%v]", j.Err)
			}
			b.WriteString("\n")
		}
		return b.String(), true, nil
	case f[0] == "cp" && len(f) == 3 && f[1] == "cancel":
		if err := p.CancelJob(f[2]); err != nil {
			return "", true, err
		}
		return fmt.Sprintf("%s cancelled\n", f[2]), true, nil
	case f[0] == "cp" && len(f) == 2 && f[1] == "drain":
		before := p.Outstanding()
		p.Drain()
		return fmt.Sprintf("drained: %d job(s) settled\n", before), true, nil
	case f[0] == "cp" && len(f) >= 2:
		req, err := controlplane.ParseRequest(strings.Join(f[1:], " "))
		if err != nil {
			return "", true, err
		}
		if !req.Op.Mutation() {
			switch req.Op {
			case controlplane.OpList:
				vms, err := p.ListVMs(req.Tenant)
				if err != nil {
					return "", true, err
				}
				for _, v := range vms {
					fmt.Fprintf(&b, "%s  %d MB  %s", v.Name, v.MemMB, v.State)
					if v.Host != "" {
						fmt.Fprintf(&b, "  on %s", v.Host)
					}
					b.WriteString("\n")
				}
			case controlplane.OpUsage:
				u, err := p.TenantUsage(req.Tenant)
				if err != nil {
					return "", true, err
				}
				fmt.Fprintf(&b, "%s  vms %d/%d  mem %d/%d MB  jobs %d/%d\n",
					u.Tenant, u.VMs, u.Quota.MaxVMs, u.MemMB, u.Quota.MaxMemMB, u.ActiveJobs, u.Quota.MaxJobs)
			}
			return b.String(), true, nil
		}
		j, err := p.Submit(req)
		if err != nil {
			return "", true, err
		}
		return fmt.Sprintf("%s %s (%s)\n", j.ID, j.State, j.Request.Render()), true, nil
	}
	return "", true, fmt.Errorf("unknown %s command %q", f[0], line)
}

// fleetExecute intercepts fleet-level commands; everything else falls
// through to the per-host virtman shell. handled is true when the line was
// a fleet command (even one that failed), so domain-command errors stay
// virtman's.
func fleetExecute(fl *fleet.Fleet, line string) (out string, handled bool, err error) {
	f := strings.Fields(line)
	switch {
	case f[0] == "hosts", f[0] == "link", f[0] == "fleet":
	default:
		return "", false, nil
	}
	if fl == nil {
		return "", true, fmt.Errorf("%q needs a fleet session (run with -hosts N)", f[0])
	}
	var b strings.Builder
	switch {
	case f[0] == "hosts" && len(f) == 1:
		for _, h := range fl.HostNames() {
			tag := ""
			if fl.Trusted(h) {
				tag = "  trusted"
			}
			fmt.Fprintf(&b, "%s  free %d MB%s\n", h, fl.FreeMemMB(h), tag)
		}
		return b.String(), true, nil
	case f[0] == "link" && len(f) == 3 && (f[1] == "down" || f[1] == "up"):
		if err := fl.SetHostLink(f[2], f[1] == "down"); err != nil {
			return "", true, err
		}
		return fmt.Sprintf("link %s: %s\n", f[1], f[2]), true, nil
	case f[0] == "fleet" && len(f) == 5 && f[1] == "spawn":
		memMB, err := strconv.ParseInt(f[4], 10, 64)
		if err != nil {
			return "", true, fmt.Errorf("fleet spawn: bad memory size %q", f[4])
		}
		if _, err := fl.StartGuest(f[2], f[3], memMB); err != nil {
			return "", true, err
		}
		return fmt.Sprintf("spawned %s on %s\n", f[3], f[2]), true, nil
	case f[0] == "fleet" && len(f) == 4 && f[1] == "migrate":
		rep, err := fl.MigrateVM(f[2], f[3])
		if err != nil {
			return "", true, err
		}
		fmt.Fprintf(&b, "migrated %s: %s -> %s in %s", rep.Guest, rep.From, rep.To, rep.Duration)
		if rep.Retries > 0 {
			fmt.Fprintf(&b, " (%d retries)", rep.Retries)
		}
		b.WriteString("\n")
		return b.String(), true, nil
	case f[0] == "fleet" && len(f) == 2 && f[1] == "guests":
		for _, g := range fl.GuestNames() {
			info, err := fl.Lookup(g)
			if err != nil {
				return "", true, err
			}
			fmt.Fprintf(&b, "%s  on %s  port %d\n", g, info.Host, info.ServicePort)
		}
		return b.String(), true, nil
	}
	return "", true, fmt.Errorf("unknown fleet command %q", line)
}
