package qemu

import (
	"errors"
	"strings"
	"testing"
)

// TestRegistryShape: every registry entry has a handler and a help line,
// and the index maps each of its spellings to it and to nothing else.
func TestRegistryShape(t *testing.T) {
	spellings := 0
	for _, c := range registry {
		if c.run == nil || c.help == "" {
			t.Fatalf("command %q lacks a handler or a help line", c.name)
		}
		for _, s := range append([]string{c.name}, c.aliases...) {
			if commands[s] != c {
				t.Fatalf("spelling %q of %q not indexed", s, c.name)
			}
			spellings++
		}
	}
	if len(commands) != spellings {
		t.Fatalf("index holds %d spellings, registry declares %d", len(commands), spellings)
	}
}

// TestHMPErrorsWrapSentinels: every HMP failure mode is errors.Is-matchable
// against the package sentinels.
func TestHMPErrorsWrapSentinels(t *testing.T) {
	vm := runningVM(t)
	m := vm.Monitor()
	unknown := []string{
		"bogus",
		"info",
		"info bogus",
		"migrate",
		"migrate -d",
		"migrate_set_speed",
		"migrate_set_speed lots",
		"migrate_set_speed 0",
		"migrate_set_speed -5",
		"migrate_set_speed -1g",
		"migrate_set_speed 9000000000g",
		"migrate_set_capability xbzrle maybe",
		"hostfwd_add",
		"hostfwd_add nonsense",
		"savevm",
	}
	for _, cmd := range unknown {
		if _, err := m.Execute(cmd); !errors.Is(err, ErrUnknownCommand) {
			t.Fatalf("%q err = %v, want ErrUnknownCommand", cmd, err)
		}
	}
	noMigrator := []string{
		"migrate tcp:127.0.0.1:4444",
		"migrate_cancel",
		"migrate_set_capability xbzrle on",
	}
	for _, cmd := range noMigrator {
		if _, err := m.Execute(cmd); !errors.Is(err, ErrNoMigrator) {
			t.Fatalf("%q err = %v, want ErrNoMigrator", cmd, err)
		}
	}
}

// TestHelpListsEveryDocumentedCommand: `help` is generated from the
// registry, so each command shows up.
func TestHelpListsEveryDocumentedCommand(t *testing.T) {
	vm := runningVM(t)
	out, err := vm.Monitor().Execute("help")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range registry {
		if !strings.Contains(out, c.help) {
			t.Fatalf("help output missing %q", c.help)
		}
	}
	if !strings.Contains(out, "migrate_cancel") || !strings.Contains(out, "info qtree") {
		t.Fatalf("help = %q", out)
	}
}
