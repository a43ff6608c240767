package fleet

import (
	"errors"
	"fmt"
	"time"

	"cloudskulk/internal/migrate"
	"cloudskulk/internal/qemu"
	"cloudskulk/internal/telemetry"
	"cloudskulk/internal/vnet"
)

// MoveReport summarizes one fleet-level guest move.
type MoveReport struct {
	Guest string
	From  string
	To    string
	// Skipped is set when the move was already satisfied (e.g.
	// MigrateToTrusted of a guest already on a trusted host).
	Skipped bool
	// Attempts counts outer-migration attempts (1 = clean first try).
	Attempts int
	// Retries counts aborted-and-retried migration attempts across the
	// whole move (outer and nested streams).
	Retries int
	// Duration is the move's total virtual time, including backoff.
	Duration time.Duration
	// Result is the outer VM's migration result.
	Result migrate.Result
}

// migrateWithRetry drives one migration stream to target, retrying
// network aborts (link down, no bandwidth) with exponential backoff in
// virtual time. Aborts hand the source back running, so no VM is lost
// between attempts; each retry restarts the stream from a full dirty
// set. Non-abort errors (config mismatch, cancellation) fail fast.
func (f *Fleet) migrateWithRetry(vm *qemu.VM, target vnet.Addr) (attempts, retries int, err error) {
	for attempts = 1; ; attempts++ {
		err = f.mig.MigrateTo(vm, target)
		if err == nil {
			return attempts, retries, nil
		}
		if !errors.Is(err, migrate.ErrAborted) || attempts >= f.retry.Attempts {
			return attempts, retries, fmt.Errorf("%w: %q after %d attempts: %w",
				ErrMigrationFailed, vm.Name(), attempts, err)
		}
		f.eng.RunFor(f.retry.Delay(retries))
		retries++
	}
}

// MigrateVM live-migrates a guest to another host: it stands up an
// incoming QEMU instance on the destination, streams the guest's outer VM
// over the host<->host link (contending with concurrent migrations,
// retrying link failures with backoff), reconstitutes any nested stack
// riding inside it — a CloudSkulk RITM's hidden L2 guest moves with it —
// rewires the service forward chain on the destination, and retires the
// source instance. On failure the typed error is surfaced and the guest
// keeps running at the source.
func (f *Fleet) MigrateVM(guestName, dstName string) (rep MoveReport, err error) {
	g, ok := f.guests[guestName]
	if !ok {
		return MoveReport{}, fmt.Errorf("%w: %q", ErrUnknownGuest, guestName)
	}
	rep = MoveReport{Guest: guestName, From: g.host, To: dstName}
	span := f.spans.Start("fleet.migrate",
		telemetry.A("guest", guestName),
		telemetry.A("from", g.host),
		telemetry.A("to", dstName))
	defer func() {
		outcome := "completed"
		if err != nil {
			outcome = "failed"
			f.tele.Counter("fleet_migrations_failed_total").Inc()
		} else {
			f.tele.Counter("fleet_migrations_total").Inc()
		}
		f.tele.Counter("fleet_migration_retries_total").Add(uint64(rep.Retries))
		span.Set("outcome", outcome)
		span.End()
	}()
	dstHost, herr := f.Host(dstName)
	if herr != nil {
		return rep, herr
	}
	if dstName == g.host {
		return rep, fmt.Errorf("%w: %q on %q", ErrSameHost, guestName, dstName)
	}
	if f.FreeMemMB(dstName) < g.memMB {
		return rep, fmt.Errorf("%w: %q to %q", ErrInsufficientMemory, guestName, dstName)
	}
	info, err := f.Lookup(guestName)
	if err != nil {
		return rep, err
	}

	src := f.hosts[g.host]
	srcHV := src.Hypervisor()
	dstHV := dstHost.Hypervisor()
	start := f.eng.Now()

	// The destination instance needs a globally fresh name (VM NIC
	// endpoints share one namespace) and a fresh incoming port.
	f.gen++
	instName := fmt.Sprintf("%s-g%d", guestName, f.gen)
	inPort := migrationBasePort + f.gen
	ocfg := info.Outer.Config().Clone()
	ocfg.Name = instName
	ocfg.Incoming = fmt.Sprintf("tcp:0.0.0.0:%d", inPort)
	// Forwards are host-scoped runtime state, not guest state: the
	// service chain is reinstalled on the destination after handoff.
	for i := range ocfg.NetDevs {
		ocfg.NetDevs[i].HostFwds = nil
	}
	dstOuter, err := dstHV.CreateVM(ocfg)
	if err != nil {
		return rep, err
	}
	// Booting with -incoming parks the instance in StateIncoming.
	if err := dstHV.Launch(instName); err != nil {
		_ = dstHV.Kill(instName)
		return rep, err
	}

	attempts, retries, err := f.migrateWithRetry(info.Outer, vnet.Addr{Endpoint: dstName, Port: inPort})
	rep.Attempts, rep.Retries = attempts, retries
	if err != nil {
		// Discard the incoming shell; the source was handed back running.
		_ = dstHV.Kill(instName)
		return rep, err
	}
	if res, ok := f.mig.LastResult(); ok {
		rep.Result = res
	}

	if _, nested := srcHV.Nested(info.Outer.Name()); nested && info.Inner != info.Outer {
		// The outer VM hosts a nested hypervisor: re-create the L2 guest
		// behind the migrated instance and stream it over. Its config
		// still carries the victim's original -incoming port and service
		// forward, so the inner half of the double-forward chain
		// reassembles itself at CreateVM time.
		dstInnerHV, err := dstHV.EnableNesting(instName)
		if err != nil {
			return rep, err
		}
		ncfg := info.Inner.Config().Clone()
		if ncfg.Incoming == "" {
			ncfg.Incoming = fmt.Sprintf("tcp:0.0.0.0:%d", inPort)
		}
		if _, err := dstInnerHV.CreateVM(ncfg); err != nil {
			return rep, err
		}
		if err := dstInnerHV.Launch(ncfg.Name); err != nil {
			return rep, err
		}
		nPort, err := qemu.ParseIncomingPort(ncfg.Incoming)
		if err != nil {
			return rep, err
		}
		_, nRetries, err := f.migrateWithRetry(info.Inner, vnet.Addr{Endpoint: dstOuter.Endpoint(), Port: nPort})
		rep.Retries += nRetries
		if err != nil {
			return rep, err
		}
		// Outer half of the chain: host service port into the RITM.
		err = dstHV.AddHostFwd(dstOuter, qemu.FwdRule{HostPort: g.servicePort, GuestPort: g.servicePort})
		if err != nil {
			return rep, err
		}
	} else {
		if err := dstHV.AddHostFwd(dstOuter, qemu.FwdRule{HostPort: g.servicePort, GuestPort: 22}); err != nil {
			return rep, err
		}
	}

	// Retire the source stack: kills any nested guests with it and tears
	// down its forwards, KSM registration, and endpoint.
	if err := srcHV.Kill(info.Outer.Name()); err != nil {
		return rep, err
	}
	src.usedMB -= g.memMB
	g.host = dstName
	f.hosts[dstName].usedMB += g.memMB
	rep.Duration = f.eng.Now() - start
	return rep, nil
}

// MigrateToTrusted moves a guest onto a trusted host chosen by the
// placement scheduler. A guest already on a trusted host is a no-op
// (Skipped report).
func (f *Fleet) MigrateToTrusted(guestName string) (MoveReport, error) {
	g, ok := f.guests[guestName]
	if !ok {
		return MoveReport{}, fmt.Errorf("%w: %q", ErrUnknownGuest, guestName)
	}
	if f.hosts[g.host].spec.Trusted {
		return MoveReport{Guest: guestName, From: g.host, To: g.host, Skipped: true}, nil
	}
	dst, err := f.PickHost(guestName, Policy{RequireTrusted: true})
	if err != nil {
		return MoveReport{Guest: guestName, From: g.host}, err
	}
	return f.MigrateVM(guestName, dst)
}

// EvacuateHost migrates every guest off the named host, placing each via
// the scheduler under pol (guests are processed in name order). It
// returns the reports for the moves completed, stopping at the first
// failure.
//
//detlint:allow deadcode — ROADMAP item 5's FuzzFleetOps crashes a host and evacuates it through this
func (f *Fleet) EvacuateHost(hostName string, pol Policy) ([]MoveReport, error) {
	if _, ok := f.hosts[hostName]; !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownHost, hostName)
	}
	f.tele.Counter("fleet_evacuations_total").Inc()
	span := f.spans.Start("fleet.evacuate", telemetry.A("host", hostName))
	defer span.End()
	var reports []MoveReport
	for _, guestName := range f.GuestsOn(hostName) {
		dst, err := f.PickHost(guestName, pol)
		if err != nil {
			return reports, err
		}
		rep, err := f.MigrateVM(guestName, dst)
		if err != nil {
			return reports, err
		}
		reports = append(reports, rep)
	}
	return reports, nil
}
