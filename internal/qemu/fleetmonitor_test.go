package qemu_test

import (
	"fmt"
	"strconv"
	"strings"
	"testing"
	"time"

	"cloudskulk/internal/cpu"
	"cloudskulk/internal/fleet"
	"cloudskulk/internal/qemu"
)

// migrateStatus reads the status line of `info migrate`; "" while no
// migration has started.
func migrateStatus(t *testing.T, vm *qemu.VM) string {
	t.Helper()
	out, err := vm.Monitor().Execute("info migrate")
	if err != nil {
		t.Fatalf("info migrate: %v", err)
	}
	for _, line := range strings.Split(out, "\n") {
		if s, ok := strings.CutPrefix(line, "Migration status: "); ok {
			return s
		}
	}
	return ""
}

// TestInfoMigrateDuringFleetMigration: for an in-flight cross-host
// migration, `info migrate` on the source VM reports `active` — the
// status is published at stream start, not only at completion — and
// `completed` once the migration is done.
func TestInfoMigrateDuringFleetMigration(t *testing.T) {
	f, err := fleet.New(3, fleet.WithHosts(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.StartGuest("h00", "web", 256); err != nil {
		t.Fatal(err)
	}
	info, err := f.Lookup("web")
	if err != nil {
		t.Fatal(err)
	}
	src := info.Outer

	// The probe rides the shared virtual clock: it fires inside
	// MigrateVM's event rounds. Migration start isn't instant (the
	// destination clone boots first), so keep probing until the active
	// phase is caught, then track it second by second.
	active := 0
	var probe func()
	probe = func() {
		status := migrateStatus(t, src)
		if status == "active" {
			active++
		}
		if status == "" || status == "active" {
			f.Engine().Schedule(time.Second, "monitor.probe", probe)
		}
	}
	f.Engine().Schedule(time.Second, "monitor.probe", probe)

	if _, err := f.MigrateVM("web", "h01"); err != nil {
		t.Fatal(err)
	}
	if active == 0 {
		t.Fatal("no probe observed an active migration")
	}
	// The retired source still answers with the final state.
	if status := migrateStatus(t, src); status != "completed" {
		t.Fatalf("final status = %q", status)
	}
}

// TestInfoStatsAfterActivity: after real activity (guest exits, KSM
// scanning, a cross-host migration) every `info stats` line parses, and
// the cpu-exit, ksm and migration families the detection story observes
// are all visible through the monitor.
func TestInfoStatsAfterActivity(t *testing.T) {
	f, err := fleet.New(7, fleet.WithHosts(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.StartGuest("h00", "web", 256); err != nil {
		t.Fatal(err)
	}
	info, err := f.Lookup("web")
	if err != nil {
		t.Fatal(err)
	}
	// Guest activity: I/O-heavy work generates VM exits at L1.
	info.Inner.VCPU().Exec(cpu.IOOp("disk write", cpu.Micros(12), 1), 500)
	// Host activity: a KSM scan window.
	host, err := f.Host("h00")
	if err != nil {
		t.Fatal(err)
	}
	host.KSM().Start()
	f.Engine().RunFor(200 * time.Millisecond)
	host.KSM().Stop()
	// Fleet activity: one completed migration.
	if _, err := f.MigrateVM("web", "h01"); err != nil {
		t.Fatal(err)
	}
	info, err = f.Lookup("web")
	if err != nil {
		t.Fatal(err)
	}

	// "name: value" and "name: count=N sum=S" lines.
	out, err := info.Outer.Monitor().Execute("info stats")
	if err != nil {
		t.Fatalf("info stats: %v", err)
	}
	stats := map[string]string{}
	for _, line := range strings.Split(strings.TrimSuffix(out, "\n"), "\n") {
		name, val, ok := strings.Cut(line, ": ")
		if !ok {
			t.Fatalf("unparseable info stats line %q", line)
		}
		var count uint64
		var sum int64
		_, intErr := strconv.ParseInt(val, 10, 64)
		_, histErr := fmt.Sscanf(val, "count=%d sum=%d", &count, &sum)
		if intErr != nil && (histErr != nil || fmt.Sprintf("count=%d sum=%d", count, sum) != val) {
			t.Fatalf("unparseable info stats value in %q", line)
		}
		stats[name] = val
	}
	for _, family := range []string{
		`cpu_exits_total{class="io",level="L1"}`,
		"ksm_pages_scanned_total",
		"migrate_completed_total",
	} {
		if _, ok := stats[family]; !ok {
			t.Errorf("family %q missing from monitor stats:\n%s", family, out)
		}
	}
}
