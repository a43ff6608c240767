package virtman

import (
	"fmt"
	"strings"

	"cloudskulk/internal/report"
)

// commandSet is the single source of truth for what Execute understands:
// the dispatch switch below and the `help` listing both follow it, so the
// two cannot drift apart (TestHelpListsEveryCommand pins this).
var commandSet = []struct{ name, usage, desc string }{
	{"list", "list [--all]", "active (or all) domains"},
	{"define", "define <json>", "define a domain from inline JSON"},
	{"undefine", "undefine <name>", "remove an inactive definition"},
	{"start", "start <name>", "create and boot"},
	{"destroy", "destroy <name>", "hard stop"},
	{"reboot", "reboot <name>", "guest reboot"},
	{"suspend", "suspend <name>", "pause"},
	{"resume", "resume <name>", "unpause"},
	{"migrate", "migrate <name> <uri>", "live migrate"},
	{"dumpjson", "dumpjson <name>", "print the definition"},
	{"autostart-all", "autostart-all", "start all autostart domains"},
	{"help", "help", "this listing"},
}

// Commands returns the name of every command Execute dispatches.
//
//detlint:allow deadcode — test oracle: TestHelpListsEveryCommand holds virtsh's help to this set
func Commands() []string {
	names := make([]string, len(commandSet))
	for i, c := range commandSet {
		names[i] = c.name
	}
	return names
}

// Help renders the command listing, one aligned line per command.
func Help() string {
	width := 0
	for _, c := range commandSet {
		if len(c.usage) > width {
			width = len(c.usage)
		}
	}
	var b strings.Builder
	for _, c := range commandSet {
		fmt.Fprintf(&b, "%-*s  %s\n", width, c.usage, c.desc)
	}
	return b.String()
}

// Execute runs one virsh-style command line against the manager and
// returns its output; `help` lists the supported commands.
func Execute(m *Manager, line string) (string, error) {
	fields := strings.Fields(line)
	if len(fields) == 0 {
		return "", nil
	}
	cmd, args := fields[0], fields[1:]
	need := func(n int) error {
		if len(args) != n {
			return fmt.Errorf("virtman: %s expects %d argument(s)", cmd, n)
		}
		return nil
	}
	switch cmd {
	case "list":
		all := len(args) == 1 && args[0] == "--all"
		t := report.Table{Headers: []string{"Name", "State"}}
		for _, d := range m.List() {
			if !all && !d.Active() {
				continue
			}
			t.AddRow(d.Def.Name, string(d.State()))
		}
		return t.Render(), nil
	case "define":
		// The JSON is everything after the verb.
		raw := strings.TrimSpace(strings.TrimPrefix(line, "define"))
		if raw == "" {
			return "", fmt.Errorf("virtman: define expects a JSON definition")
		}
		d, err := m.DefineJSON([]byte(raw))
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("Domain %s defined\n", d.Def.Name), nil
	case "undefine":
		if err := need(1); err != nil {
			return "", err
		}
		if err := m.Undefine(args[0]); err != nil {
			return "", err
		}
		return fmt.Sprintf("Domain %s has been undefined\n", args[0]), nil
	case "start":
		if err := need(1); err != nil {
			return "", err
		}
		if err := m.Start(args[0]); err != nil {
			return "", err
		}
		return fmt.Sprintf("Domain %s started\n", args[0]), nil
	case "destroy":
		if err := need(1); err != nil {
			return "", err
		}
		if err := m.Destroy(args[0]); err != nil {
			return "", err
		}
		return fmt.Sprintf("Domain %s destroyed\n", args[0]), nil
	case "reboot":
		if err := need(1); err != nil {
			return "", err
		}
		if err := m.Reboot(args[0]); err != nil {
			return "", err
		}
		return fmt.Sprintf("Domain %s is being rebooted\n", args[0]), nil
	case "suspend":
		if err := need(1); err != nil {
			return "", err
		}
		if err := m.Suspend(args[0]); err != nil {
			return "", err
		}
		return fmt.Sprintf("Domain %s suspended\n", args[0]), nil
	case "resume":
		if err := need(1); err != nil {
			return "", err
		}
		if err := m.Resume(args[0]); err != nil {
			return "", err
		}
		return fmt.Sprintf("Domain %s resumed\n", args[0]), nil
	case "migrate":
		if err := need(2); err != nil {
			return "", err
		}
		if err := m.Migrate(args[0], args[1]); err != nil {
			return "", err
		}
		return fmt.Sprintf("Migration of %s completed\n", args[0]), nil
	case "dumpjson":
		if err := need(1); err != nil {
			return "", err
		}
		raw, err := m.DumpJSON(args[0])
		if err != nil {
			return "", err
		}
		return string(raw) + "\n", nil
	case "autostart-all":
		started, err := m.AutostartAll()
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("Started: %s\n", strings.Join(started, ", ")), nil
	case "help":
		return Help(), nil
	default:
		return "", fmt.Errorf("virtman: unknown command %q", cmd)
	}
}
