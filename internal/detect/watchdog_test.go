package detect

import (
	"errors"
	"testing"
	"time"
)

func TestWatchdogCleanHostStaysQuiet(t *testing.T) {
	h, _, vm := cleanCloud(t, 1)
	d := NewDedupDetector(h)
	d.Pages = 20
	d.Wait = 5 * time.Second
	w := NewWatchdog(d, []string{"guest0"}, func(string) (*GuestAgent, error) {
		return NewGuestAgent(vm), nil
	})
	w.Start(time.Minute)
	w.Start(time.Minute) // idempotent
	h.Engine().RunFor(5 * time.Minute)
	w.Stop()
	if got := w.Alerts(); len(got) != 0 {
		t.Fatalf("alerts on clean host: %v", got)
	}
	if w.Scans() < 4 {
		t.Fatalf("scans = %d", w.Scans())
	}
	if len(w.Errors()) != 0 {
		t.Fatalf("errors = %v", w.Errors())
	}
}

func TestWatchdogAlertsOnInfectedHost(t *testing.T) {
	h, rk := infectedCloud(t, 1)
	d := NewDedupDetector(h)
	d.Pages = 20
	d.Wait = 5 * time.Second
	w := NewWatchdog(d, []string{"guest0"}, func(string) (*GuestAgent, error) {
		agent := NewGuestAgent(rk.Victim)
		agent.OnLoad = rk.InterceptFilePushes()
		return agent, nil
	})
	w.ScanOnce()
	alerts := w.Alerts()
	if len(alerts) != 1 {
		t.Fatalf("alerts = %v", alerts)
	}
	if alerts[0].Guest != "guest0" || alerts[0].Verdict != VerdictNested {
		t.Fatalf("alert = %+v", alerts[0])
	}
}

func TestWatchdogRecordsFactoryErrors(t *testing.T) {
	h, _, _ := cleanCloud(t, 1)
	d := NewDedupDetector(h)
	boom := errors.New("tenant down")
	w := NewWatchdog(d, []string{"gone"}, func(string) (*GuestAgent, error) {
		return nil, boom
	})
	w.ScanOnce()
	if errs := w.Errors(); len(errs) != 1 || !errors.Is(errs[0], boom) {
		t.Fatalf("errors = %v", errs)
	}
	if w.Scans() != 0 {
		t.Fatalf("scans = %d", w.Scans())
	}
}

func TestWatchdogRecordsDetectorErrors(t *testing.T) {
	h, _, vm := cleanCloud(t, 1)
	h.KSM().Stop()
	d := NewDedupDetector(h)
	w := NewWatchdog(d, []string{"guest0"}, func(string) (*GuestAgent, error) {
		return NewGuestAgent(vm), nil
	})
	w.ScanOnce()
	if errs := w.Errors(); len(errs) != 1 || !errors.Is(errs[0], ErrKSMOff) {
		t.Fatalf("errors = %v", errs)
	}
}
