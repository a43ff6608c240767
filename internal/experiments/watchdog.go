package experiments

import (
	"errors"
	"fmt"
	"time"

	"cloudskulk/internal/core"
	"cloudskulk/internal/detect"
	"cloudskulk/internal/report"
)

// TimeToDetectResult measures the gap between infection and the watchdog's
// alert under periodic scanning.
type TimeToDetectResult struct {
	ScanPeriod   time.Duration
	InfectedAt   time.Duration
	AlertAt      time.Duration
	TimeToDetect time.Duration
	ScansRun     uint64
}

// TimeToDetect deploys the watchdog on a clean host, lets it run, infects
// the tenant mid-flight, and measures when the alert fires.
func TimeToDetect(o Options, scanPeriod time.Duration) (TimeToDetectResult, error) {
	o = o.withDefaults()
	res := TimeToDetectResult{ScanPeriod: scanPeriod}
	c, err := NewCloud(o.Seed, WithGuestMemMB(o.GuestMemMB), WithTelemetry(o.Telemetry), WithBackend(o.Backend))
	if err != nil {
		return res, err
	}
	c.Host.KSM().Start()
	d := o.dedupDetector(c.Host)

	// The rootkit handle appears once the attack runs; the factory
	// resolves the serving VM per scan, so post-attack scans land in the
	// nested guest automatically.
	var rk *core.Rootkit
	factory := func(string) (*detect.GuestAgent, error) {
		vm, _, err := c.Host.Serving(2222)
		if err != nil {
			return nil, err
		}
		agent := detect.NewGuestAgent(vm)
		if rk != nil {
			agent.OnLoad = rk.InterceptFilePushes()
		}
		return agent, nil
	}
	w := detect.NewWatchdog(d, []string{"guest0"}, factory)
	w.Start(scanPeriod)
	defer w.Stop()

	// Let one clean cycle complete, then strike.
	c.Eng.RunFor(scanPeriod + d.Wait*4)
	res.InfectedAt = c.Eng.Now()
	rk, err = c.InstallRootkit(core.InstallConfig{})
	if err != nil {
		return res, err
	}

	// Run until the alert lands (bounded).
	deadline := c.Eng.Now() + 20*scanPeriod + time.Hour
	for len(w.Alerts()) == 0 && c.Eng.Now() < deadline {
		c.Eng.RunFor(scanPeriod)
	}
	// A failed scan would skew the time to detect (or hide why no alert
	// came), so any failure fails the artefact.
	if errs := w.Errors(); len(errs) > 0 {
		return res, fmt.Errorf("watchdog: %d scan(s) failed: %w", len(errs), errors.Join(errs...))
	}
	alerts := w.Alerts()
	if len(alerts) == 0 {
		return res, fmt.Errorf("watchdog never alerted")
	}
	res.AlertAt = alerts[0].At
	res.TimeToDetect = res.AlertAt - res.InfectedAt
	res.ScansRun = w.Scans()
	return res, nil
}

// Render draws the result.
func (r TimeToDetectResult) Render() string {
	t := report.Table{
		Title:   "Watchdog: time to detect under periodic scanning",
		Headers: []string{"scan period", "infected at", "alert at", "time to detect", "scans"},
	}
	t.AddRow(r.ScanPeriod.String(), r.InfectedAt.String(), r.AlertAt.String(),
		r.TimeToDetect.String(), fmt.Sprintf("%d", r.ScansRun))
	return t.Render()
}
