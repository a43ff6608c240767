package experiments

import (
	"errors"
	"strings"
	"testing"
	"time"

	"cloudskulk/internal/detect"
	"cloudskulk/internal/mem"
)

func TestTimeToDetect(t *testing.T) {
	o := TestOptions()
	period := 5 * time.Minute
	res, err := TimeToDetect(o, period)
	if err != nil {
		t.Fatal(err)
	}
	if res.TimeToDetect <= 0 {
		t.Fatalf("time to detect = %v", res.TimeToDetect)
	}
	// Detection lands within a couple of scan periods of infection (one
	// period of latency plus the protocol's own three merge windows).
	if res.TimeToDetect > 2*period+4*o.KSMWait {
		t.Fatalf("time to detect = %v, period %v", res.TimeToDetect, period)
	}
	if res.ScansRun < 2 {
		t.Fatalf("scans = %d (need at least one clean + one alerting)", res.ScansRun)
	}
	if !strings.Contains(res.Render(), "time to detect") {
		t.Fatal("render")
	}
}

// A guest smaller than the agent's probe offset fails every scan; the
// artefact must fail with those failures as its cause rather than time a
// detection that skipped them.
func TestTimeToDetectReportsScanErrors(t *testing.T) {
	o := TestOptions()
	o.GuestMemMB = detect.AgentPage * mem.PageSize >> 20 / 2
	_, err := TimeToDetect(o, 5*time.Minute)
	if !errors.Is(err, mem.ErrOutOfRange) {
		t.Fatalf("err = %v, want a scan failure wrapping mem.ErrOutOfRange", err)
	}
}
