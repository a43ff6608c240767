package qemu

import (
	"fmt"
	"strings"
)

// command is one HMP monitor command.
type command struct {
	// name is the HMP spelling ("migrate", "info status").
	name string
	// aliases are extra spellings dispatching to the same command.
	aliases []string
	// help is the command's line in the `help` listing.
	help string
	// run parses the fields after the verb, acts on the monitor's VM and
	// returns what the console prints. Argument errors wrap
	// ErrUnknownCommand. The *Monitor is the VM's singleton console
	// state (migration speed cap).
	run func(m *Monitor, args []string) (string, error)
}

// registry lists every monitor command in `help` order.
var registry = []*command{
	{
		name: "info status",
		help: "info status -- show VM run state",
		run: func(m *Monitor, _ []string) (string, error) {
			return fmt.Sprintf("VM status: %s\n", m.vm.State()), nil
		},
	},
	{
		name: "info name",
		help: "info name -- show VM name",
		run: func(m *Monitor, _ []string) (string, error) {
			return m.vm.Name() + "\n", nil
		},
	},
	{
		name: "info qtree",
		help: "info qtree -- show device tree",
		run: func(m *Monitor, _ []string) (string, error) {
			return renderQtree(m.vm.Config()), nil
		},
	},
	{
		name: "info mtree",
		help: "info mtree -- show memory map",
		run: func(m *Monitor, _ []string) (string, error) {
			return renderMtree(m.vm.Config()), nil
		},
	},
	{
		name: "info mem",
		help: "info mem -- show memory summary",
		run: func(m *Monitor, _ []string) (string, error) {
			return renderMem(m.vm), nil
		},
	},
	{
		name: "info blockstats",
		help: "info blockstats -- show block device statistics",
		run: func(m *Monitor, _ []string) (string, error) {
			var b strings.Builder
			for i := range m.vm.Config().Drives {
				st, _ := m.vm.BlockStatsFor(i)
				fmt.Fprintf(&b,
					"drive%d: rd_bytes=%d wr_bytes=%d rd_operations=%d wr_operations=%d\n",
					i, st.RdBytes, st.WrBytes, st.RdOps, st.WrOps)
			}
			return b.String(), nil
		},
	},
	{
		name: "info network",
		help: "info network -- show network devices and host forwarding",
		run: func(m *Monitor, _ []string) (string, error) {
			return renderNetwork(m.vm.Config()), nil
		},
	},
	{
		name: "info migrate",
		help: "info migrate -- show migration status",
		run: func(m *Monitor, _ []string) (string, error) {
			return renderMigrate(m.vm.MigrationStatus()), nil
		},
	},
	{
		name: "info stats",
		help: "info stats -- show telemetry metrics (counters, gauges, histograms)",
		run: func(m *Monitor, _ []string) (string, error) {
			// A VM with no registry attached reports no statistics,
			// mirroring QEMU's behaviour when no stats provider exists.
			snaps := m.vm.Telemetry().Snapshot()
			if len(snaps) == 0 {
				return "No statistics available.\n", nil
			}
			var b strings.Builder
			for _, s := range snaps {
				switch s.Type {
				case "histogram":
					fmt.Fprintf(&b, "%s: count=%d sum=%d\n", s.Name, s.Count, s.Sum)
				default:
					fmt.Fprintf(&b, "%s: %d\n", s.Name, s.Value)
				}
			}
			return b.String(), nil
		},
	},
	{
		name: "info snapshots",
		help: "info snapshots -- list checkpoints",
		run: func(m *Monitor, _ []string) (string, error) {
			snaps := m.vm.Snapshots()
			if len(snaps) == 0 {
				return "There is no snapshot available.\n", nil
			}
			var b strings.Builder
			b.WriteString("ID  TAG          VM CLOCK\n")
			for i, s := range snaps {
				fmt.Fprintf(&b, "%-3d %-12s %s\n", i+1, s.Name, s.TakenAt)
			}
			return b.String(), nil
		},
	},
	{
		name: "stop",
		help: "stop -- pause the VM",
		run: func(m *Monitor, _ []string) (string, error) {
			return "", m.vm.Pause()
		},
	},
	{
		name: "cont",
		help: "cont -- resume the VM",
		run: func(m *Monitor, _ []string) (string, error) {
			return "", m.vm.Resume()
		},
	},
	{
		name: "migrate",
		help: "migrate [-d] uri -- migrate the VM to uri (e.g. tcp:127.0.0.1:4444)",
		run: func(m *Monitor, args []string) (string, error) {
			// Accept and ignore -d (detach); the simulated migration
			// engine drives virtual time itself.
			var uri string
			for _, a := range args {
				if !strings.HasPrefix(a, "-") {
					uri = a
				}
			}
			if uri == "" {
				return "", fmt.Errorf("%w: migrate requires a destination uri", ErrUnknownCommand)
			}
			if m.vm.migrator == nil {
				return "", ErrNoMigrator
			}
			return "", m.vm.migrator.Migrate(m.vm, uri)
		},
	},
	{
		name: "migrate_set_speed",
		help: "migrate_set_speed value -- set maximum migration speed (e.g. 1g)",
		run: func(m *Monitor, args []string) (string, error) {
			if len(args) != 1 {
				return "", fmt.Errorf("%w: migrate_set_speed requires a value", ErrUnknownCommand)
			}
			n, err := parseSize(args[0])
			if err != nil {
				return "", err
			}
			m.speedLimit = n
			return "", nil
		},
	},
	{
		name: "migrate_cancel",
		help: "migrate_cancel -- abort the current migration",
		run: func(m *Monitor, _ []string) (string, error) {
			c, ok := m.vm.migrator.(MigrationCanceller)
			if !ok {
				return "", ErrNoMigrator
			}
			return "", c.CancelMigration(m.vm)
		},
	},
	{
		name: "migrate_set_capability",
		help: "migrate_set_capability name on|off -- toggle xbzrle / auto-converge",
		run: func(m *Monitor, args []string) (string, error) {
			if len(args) != 2 || (args[1] != "on" && args[1] != "off") {
				return "", fmt.Errorf("%w: migrate_set_capability <name> on|off", ErrUnknownCommand)
			}
			c, ok := m.vm.migrator.(CapabilitySetter)
			if !ok {
				return "", ErrNoMigrator
			}
			return "", c.SetMigrationCapability(m.vm, args[0], args[1] == "on")
		},
	},
	{
		name: "hostfwd_add",
		help: "hostfwd_add tcp::H-:G -- forward host port H to guest port G",
		run:  withFwd("hostfwd_add", (*VM).AddHostFwd),
	},
	{
		name: "hostfwd_remove",
		help: "hostfwd_remove tcp::H-:G -- remove a host forward",
		run:  withFwd("hostfwd_remove", (*VM).RemoveHostFwd),
	},
	{
		name: "savevm",
		help: "savevm name -- checkpoint the VM",
		run:  withName("savevm", (*VM).SaveSnapshot),
	},
	{
		name: "loadvm",
		help: "loadvm name -- restore a checkpoint",
		run:  withName("loadvm", (*VM).LoadSnapshot),
	},
	{
		name: "delvm",
		help: "delvm name -- delete a checkpoint",
		run:  withName("delvm", (*VM).DeleteSnapshot),
	},
	{
		name: "system_powerdown",
		help: "system_powerdown -- power down the VM",
		run: func(m *Monitor, _ []string) (string, error) {
			return "", m.vm.Shutdown()
		},
	},
	{
		name: "quit", aliases: []string{"q"},
		help: "quit -- terminate QEMU",
		run: func(m *Monitor, _ []string) (string, error) {
			return "", m.vm.Shutdown()
		},
	},
	{
		name: "help",
		help: "help -- show this text",
		run: func(m *Monitor, _ []string) (string, error) {
			return helpListing, nil
		},
	},
}

// helpListing is the rendered `help` output, built from the registry once
// at init (a plain function would form an initialization cycle).
var helpListing string

// withName runs op on the single name argument of the snapshot commands.
func withName(verb string, op func(*VM, string) error) func(*Monitor, []string) (string, error) {
	return func(m *Monitor, args []string) (string, error) {
		if len(args) != 1 {
			return "", fmt.Errorf("%w: %s requires a name", ErrUnknownCommand, verb)
		}
		return "", op(m.vm, args[0])
	}
}

// withFwd runs op on the single tcp::H-:G argument of the hostfwd
// commands.
func withFwd(verb string, op func(*VM, FwdRule) error) func(*Monitor, []string) (string, error) {
	return func(m *Monitor, args []string) (string, error) {
		if len(args) != 1 {
			return "", fmt.Errorf("%w: %s requires tcp::HOST-:GUEST", ErrUnknownCommand, verb)
		}
		rules, err := parseHostFwds("hostfwd=" + args[0])
		if err != nil || len(rules) != 1 {
			return "", fmt.Errorf("%w: bad hostfwd spec %q", ErrUnknownCommand, args[0])
		}
		return "", op(m.vm, rules[0])
	}
}

// commands indexes the registry by every spelling, built once at init.
var commands = map[string]*command{}

func init() {
	var b strings.Builder
	for _, c := range registry {
		commands[c.name] = c
		for _, a := range c.aliases {
			commands[a] = c
		}
		b.WriteString(c.help)
		b.WriteByte('\n')
	}
	helpListing = b.String()
}
