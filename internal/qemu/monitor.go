package qemu

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"strconv"
	"strings"
)

// Monitor errors.
var (
	ErrUnknownCommand = errors.New("qemu: unknown monitor command")
	ErrNoMigrator     = errors.New("qemu: no migration engine attached")
)

// MigrationCanceller is implemented by migration engines that support
// aborting an in-flight migration (the monitor's migrate_cancel).
type MigrationCanceller interface {
	CancelMigration(vm *VM) error
}

// CapabilitySetter is implemented by migration engines that support
// QEMU-style migration capabilities (xbzrle, auto-converge).
type CapabilitySetter interface {
	SetMigrationCapability(vm *VM, name string, on bool) error
}

// Monitor is the QEMU human monitor ("HMP"): the text console the paper's
// attacker drives for recon (`info qtree`, `info blockstats`, ...) and for
// the attack itself (`migrate`). It can be used programmatically through
// Execute or served over any net.Conn (e.g. a telnet port) via Serve.
// The commands themselves live in the table in commands.go.
type Monitor struct {
	vm *VM
	// speedLimit is the migration bandwidth cap set by
	// migrate_set_speed. QEMU 2.9's default was 32 MiB/s, which is what
	// makes the paper's idle 1 GiB migration take ~26 seconds.
	speedLimit int64
}

// DefaultMigrationSpeed is QEMU 2.9's default migration bandwidth cap
// (32 MiB/s).
const DefaultMigrationSpeed int64 = 32 << 20

func newMonitor(vm *VM) *Monitor {
	return &Monitor{
		vm:         vm,
		speedLimit: DefaultMigrationSpeed,
	}
}

// SpeedLimit returns the current migration bandwidth cap in bytes/second.
func (m *Monitor) SpeedLimit() int64 { return m.speedLimit }

// Execute runs one monitor command line and returns its output. Command
// errors are returned as errors (wrapping ErrUnknownCommand,
// ErrNoMigrator, or the operation's own failure); the output (possibly
// empty) is what the console would print on success.
func (m *Monitor) Execute(line string) (string, error) {
	fields := strings.Fields(line)
	if len(fields) == 0 {
		return "", nil
	}
	verb, args := fields[0], fields[1:]
	if verb == "info" {
		if len(args) == 0 {
			return "", fmt.Errorf("%w: info requires a subcommand", ErrUnknownCommand)
		}
		if _, ok := commands["info "+args[0]]; !ok {
			return "", fmt.Errorf("%w: info %q", ErrUnknownCommand, args[0])
		}
		verb, args = "info "+args[0], args[1:]
	}
	c, ok := commands[verb]
	if !ok {
		return "", fmt.Errorf("%w: %q", ErrUnknownCommand, verb)
	}
	return c.run(m, args)
}

// parseSize parses QEMU-style sizes: plain bytes or a k/m/g suffix. A
// size must be positive and fit in int64: the migration engine reads a
// cap of zero or less as "no cap", so a bad value must not land.
func parseSize(s string) (int64, error) {
	mult := int64(1)
	lower := strings.ToLower(s)
	switch {
	case strings.HasSuffix(lower, "g"):
		mult, lower = 1<<30, strings.TrimSuffix(lower, "g")
	case strings.HasSuffix(lower, "m"):
		mult, lower = 1<<20, strings.TrimSuffix(lower, "m")
	case strings.HasSuffix(lower, "k"):
		mult, lower = 1<<10, strings.TrimSuffix(lower, "k")
	}
	n, err := strconv.ParseInt(lower, 10, 64)
	if err != nil || n <= 0 || n > math.MaxInt64/mult {
		return 0, fmt.Errorf("%w: bad size %q", ErrUnknownCommand, s)
	}
	return n * mult, nil
}

// Serve runs a monitor session over conn: greeting, "(qemu) " prompts,
// line dispatch, until EOF or `quit`. Errors are printed to the session the
// way HMP does, not returned, so a bad command doesn't kill the console.
func (m *Monitor) Serve(conn net.Conn) error {
	defer func() { _ = conn.Close() }()
	w := bufio.NewWriter(conn)
	fmt.Fprintf(w, "QEMU 2.9.50 monitor - type 'help' for more information\n")
	if err := prompt(w); err != nil {
		return err
	}
	sc := bufio.NewScanner(conn)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		out, err := m.Execute(line)
		if err != nil {
			fmt.Fprintf(w, "%s\n", err)
		} else if out != "" {
			_, _ = w.WriteString(out)
		}
		// Only `quit` or an alias of it ends the session; a typo such as
		// `quitx` is an unknown command like any other.
		if f := strings.Fields(line); len(f) > 0 && commands[f[0]] == commands["quit"] {
			return w.Flush()
		}
		if err := prompt(w); err != nil {
			return err
		}
	}
	if err := sc.Err(); err != nil && !errors.Is(err, io.ErrClosedPipe) {
		return err
	}
	return nil
}

func prompt(w *bufio.Writer) error {
	if _, err := w.WriteString("(qemu) "); err != nil {
		return err
	}
	return w.Flush()
}
