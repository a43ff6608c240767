package fleet

import (
	"errors"
	"strings"
	"testing"
	"time"

	"cloudskulk/internal/hv"
	"cloudskulk/internal/telemetry"
	"cloudskulk/internal/vnet"
)

func TestNewFleetDefaults(t *testing.T) {
	f, err := New(1)
	if err != nil {
		t.Fatal(err)
	}
	hosts := f.HostNames()
	if len(hosts) != 4 {
		t.Fatalf("hosts = %v", hosts)
	}
	if got := f.TrustedHosts(); len(got) != 1 || got[0] != "h03" {
		t.Fatalf("trusted = %v", got)
	}
	// Host pairs carry the explicit datacenter link, not the loopback
	// default.
	link := link(t, f, "h00", "h03")
	if link.Bandwidth != 125<<20 {
		t.Fatalf("host link = %+v", link)
	}
}

func TestWithHostsTrustedQuarter(t *testing.T) {
	f, err := New(1, WithHosts(16))
	if err != nil {
		t.Fatal(err)
	}
	if got := f.TrustedHosts(); len(got) != 4 || got[0] != "h12" || got[3] != "h15" {
		t.Fatalf("trusted = %v", got)
	}
}

func TestStartGuestRegistersAndResolves(t *testing.T) {
	f, err := New(1)
	if err != nil {
		t.Fatal(err)
	}
	vm, err := f.StartGuest("h00", "alpha", 32)
	if err != nil {
		t.Fatal(err)
	}
	if !vm.Running() {
		t.Fatalf("state = %v", vm.State())
	}
	info, err := f.Lookup("alpha")
	if err != nil {
		t.Fatal(err)
	}
	if info.Host != "h00" || info.Outer != vm || info.Inner != vm {
		t.Fatalf("info = %+v", info)
	}
	// Guest NIC traffic rides the host uplink: cross-host link lookups
	// resolve through the attachment.
	if got := link(t, f, vm.Endpoint(), "h01"); got.Bandwidth != 125<<20 {
		t.Fatalf("attached link = %+v", got)
	}
	if _, err := f.StartGuest("h01", "alpha", 32); !errors.Is(err, ErrDuplicateGuest) {
		t.Fatalf("err = %v", err)
	}
}

func TestStartGuestCapacity(t *testing.T) {
	f, err := New(1, WithHostSpecs(
		HostSpec{Name: "a", MemMB: 64},
		HostSpec{Name: "b", MemMB: 64, Trusted: true},
	))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.StartGuest("a", "g0", 48); err != nil {
		t.Fatal(err)
	}
	if _, err := f.StartGuest("a", "g1", 48); !errors.Is(err, ErrInsufficientMemory) {
		t.Fatalf("err = %v", err)
	}
	if free := f.FreeMemMB("a"); free != 16 {
		t.Fatalf("free = %d", free)
	}
}

func TestPickHostPolicy(t *testing.T) {
	f, err := New(1, WithHostSpecs(
		HostSpec{Name: "h0", MemMB: 256},
		HostSpec{Name: "h1", MemMB: 256},
		HostSpec{Name: "h2", MemMB: 512},
		HostSpec{Name: "t0", MemMB: 256, Trusted: true},
	))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.StartGuest("h0", "g0", 32); err != nil {
		t.Fatal(err)
	}
	if _, err := f.StartGuest("h1", "g1", 32); err != nil {
		t.Fatal(err)
	}

	// Most free memory wins: h2 has twice the budget.
	if dst, err := f.PickHost("g0", Policy{}); err != nil || dst != "h2" {
		t.Fatalf("dst = %q, err = %v", dst, err)
	}
	// Trust restriction.
	if dst, err := f.PickHost("g0", Policy{RequireTrusted: true}); err != nil || dst != "t0" {
		t.Fatalf("dst = %q, err = %v", dst, err)
	}
	// Anti-affinity rules out g1's host.
	if dst, err := f.PickHost("g0", Policy{AvoidGuests: []string{"g1"}}); err != nil || dst == "h1" {
		t.Fatalf("dst = %q, err = %v", dst, err)
	}
}

func TestPickHostTieBreaksByName(t *testing.T) {
	f, err := New(1, WithHostSpecs(
		HostSpec{Name: "h0", MemMB: 256},
		HostSpec{Name: "h1", MemMB: 256},
		HostSpec{Name: "h2", MemMB: 256},
	))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.StartGuest("h0", "g0", 32); err != nil {
		t.Fatal(err)
	}
	// h1 and h2 are identical: the lexicographically first must win, so
	// sweeps re-running placement are byte-identical.
	for i := 0; i < 3; i++ {
		if dst, err := f.PickHost("g0", Policy{}); err != nil || dst != "h1" {
			t.Fatalf("dst = %q, err = %v", dst, err)
		}
	}
}

func TestSetHostLinkFlipsAllPairs(t *testing.T) {
	f, err := New(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.SetHostLink("h01", true); err != nil {
		t.Fatal(err)
	}
	if !link(t, f, "h00", "h01").Down || !link(t, f, "h01", "h03").Down {
		t.Fatal("links not down")
	}
	if link(t, f, "h00", "h02").Down {
		t.Fatal("unrelated link down")
	}
	if err := f.SetHostLink("h01", false); err != nil {
		t.Fatal(err)
	}
	if link(t, f, "h00", "h01").Down {
		t.Fatal("link still down")
	}
	if err := f.SetHostLink("nope", true); !errors.Is(err, ErrUnknownHost) {
		t.Fatalf("err = %v", err)
	}
}

func TestWithBackendRejectsUnknownName(t *testing.T) {
	if _, err := New(1, WithBackend("xen-4.1")); !errors.Is(err, hv.ErrUnknownBackend) {
		t.Fatalf("New with unknown backend: %v", err)
	}
}

// TestWithTelemetryCollectsFleetMetrics: a caller's registry passed
// through WithTelemetry receives the hosts' and the scheduler's metrics.
func TestWithTelemetryCollectsFleetMetrics(t *testing.T) {
	reg := telemetry.NewRegistry()
	f, err := New(1, WithHosts(2), WithTelemetry(reg))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.StartGuest("h00", "web", 32); err != nil {
		t.Fatal(err)
	}
	text := reg.PromText()
	for _, want := range []string{"kvm_vms_launched_total", "fleet_placements_total 1"} {
		if !strings.Contains(text, want) {
			t.Fatalf("missing %q in export:\n%s", want, text)
		}
	}
	var b strings.Builder
	if err := reg.WriteJSONLines(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `"type":"counter"`) {
		t.Fatalf("JSON-lines export has no counter:\n%s", b.String())
	}
}

func TestWithRetryAndHostLinkOptions(t *testing.T) {
	spec := vnet.LinkSpec{Bandwidth: 10 << 20, Latency: time.Millisecond}
	f, err := New(1, WithHostLink(spec), WithRetry(5, time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if got := link(t, f, "h00", "h01"); got != spec {
		t.Fatalf("link = %+v", got)
	}
	if f.Retry() != (RetryPolicy{Attempts: 5, Backoff: time.Second}) {
		t.Fatalf("retry = %+v", f.Retry())
	}
}

// link reads the fabric's link between two endpoints through a host: every
// host of a fleet shares its one fabric.
func link(t *testing.T, f *Fleet, a, b string) vnet.LinkSpec {
	t.Helper()
	h, err := f.Host(f.HostNames()[0])
	if err != nil {
		t.Fatal(err)
	}
	return h.Network().Link(a, b)
}
