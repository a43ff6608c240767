package fleet

import (
	"time"

	"cloudskulk/internal/detect"
	"cloudskulk/internal/runner"
)

// recordSweep counts one sweep verdict; a non-clean verdict is a hit.
func (f *Fleet) recordSweep(v detect.Verdict) {
	f.tele.Counter("fleet_sweep_guests_total").Inc()
	if v != detect.VerdictClean {
		f.tele.Counter("fleet_sweep_hits_total").Inc()
	}
}

// SweepOptions configures a fleet-wide detection sweep.
type SweepOptions struct {
	// Pages is the probe-file size (detector default when 0).
	Pages int
	// Wait is the KSM merge window per probe (detector default when 0).
	Wait time.Duration
	// OnAgent, when set, observes each guest's freshly built agent
	// before the detector runs — the hook an experiment uses to wire an
	// installed rootkit's file-push interception to the right guest.
	OnAgent func(guest string, agent *detect.GuestAgent)
}

// GuestVerdict is one guest's sweep outcome.
type GuestVerdict struct {
	Guest    string
	Host     string
	Verdict  detect.Verdict
	Evidence detect.Evidence
}

// SweepDetect runs the dedup-timing detector against every guest of the
// fleet (name order), each probed on whichever host currently carries it.
// Cells go through the internal/runner shard machinery for its progress
// reporting and error/panic taxonomy, but with a single worker: all
// guests share the fleet's one virtual-time engine, so probe windows must
// serialize to stay deterministic.
func (f *Fleet) SweepDetect(o SweepOptions) ([]GuestVerdict, error) {
	names := f.GuestNames()
	return runner.Map(len(names), runner.Options{Workers: 1},
		func(i int) (GuestVerdict, error) {
			name := names[i]
			info, err := f.Lookup(name)
			if err != nil {
				return GuestVerdict{}, err
			}
			// The probe needs the carrying host's ksmd scanning. Start it
			// for the probe window and stop it again afterwards unless the
			// operator already had it running — an idle fleet's daemons
			// ticking through every other guest's probe window would
			// dominate the sweep's event count for no modelled effect.
			ksmd := f.hosts[info.Host].KSM()
			if !ksmd.Running() {
				ksmd.Start()
				defer ksmd.Stop()
			}
			det := detect.NewDedupDetector(f.hosts[info.Host].Host)
			if o.Pages > 0 {
				det.Pages = o.Pages
			}
			if o.Wait > 0 {
				det.Wait = o.Wait
			}
			agent := detect.NewGuestAgent(info.Inner)
			if o.OnAgent != nil {
				o.OnAgent(name, agent)
			}
			verdict, ev, err := det.Run(agent)
			if err != nil {
				return GuestVerdict{}, err
			}
			f.recordSweep(verdict)
			return GuestVerdict{Guest: name, Host: info.Host, Verdict: verdict, Evidence: ev}, nil
		})
}
