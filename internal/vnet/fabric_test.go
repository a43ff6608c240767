package vnet

import (
	"errors"
	"testing"
	"time"

	"cloudskulk/internal/sim"
)

func fabric(t *testing.T) *Network {
	t.Helper()
	n := New(sim.NewEngine(1))
	for _, ep := range []string{"hostA", "hostB", "vmA.nic", "vmB.nic"} {
		if err := n.AddEndpoint(ep); err != nil {
			t.Fatal(err)
		}
	}
	if err := n.Attach("vmA.nic", "hostA"); err != nil {
		t.Fatal(err)
	}
	if err := n.Attach("vmB.nic", "hostB"); err != nil {
		t.Fatal(err)
	}
	return n
}

func TestAttachRootResolution(t *testing.T) {
	n := fabric(t)
	if got := n.RootOf("vmA.nic"); got != "hostA" {
		t.Fatalf("root = %q", got)
	}
	if got := n.RootOf("hostA"); got != "hostA" {
		t.Fatalf("root = %q", got)
	}
	// Chained attachment: a nested NIC rides the enclosing VM's NIC.
	if err := n.AddEndpoint("vmA/inner.nic"); err != nil {
		t.Fatal(err)
	}
	if err := n.Attach("vmA/inner.nic", "vmA.nic"); err != nil {
		t.Fatal(err)
	}
	if got := n.RootOf("vmA/inner.nic"); got != "hostA" {
		t.Fatalf("root = %q", got)
	}
	if err := n.Attach("vmA/inner.nic", "ghost"); !errors.Is(err, ErrUnknownEndpoint) {
		t.Fatalf("err = %v", err)
	}
}

func TestLinkFallsBackToAttachmentRoots(t *testing.T) {
	n := fabric(t)
	wan := LinkSpec{Bandwidth: 10 << 20, Latency: time.Millisecond}
	n.SetLink("hostA", "hostB", wan)

	// Cross-host VM traffic resolves to the host pair link.
	if got := n.Link("vmA.nic", "vmB.nic"); got != wan {
		t.Fatalf("link = %+v", got)
	}
	if got := n.Link("hostA", "vmB.nic"); got != wan {
		t.Fatalf("link = %+v", got)
	}
	// Intra-host stays on the loopback default.
	if got := n.Link("vmA.nic", "hostA"); got != n.DefaultLink {
		t.Fatalf("link = %+v", got)
	}
	// An explicit pair link beats the root fallback.
	direct := LinkSpec{Bandwidth: 1 << 20, Latency: time.Second}
	n.SetLink("vmA.nic", "vmB.nic", direct)
	if got := n.Link("vmA.nic", "vmB.nic"); got != direct {
		t.Fatalf("link = %+v", got)
	}
}

func TestRemoveEndpointClearsAttachment(t *testing.T) {
	n := fabric(t)
	n.RemoveEndpoint("vmA.nic")
	if err := n.AddEndpoint("vmA.nic"); err != nil {
		t.Fatal(err)
	}
	// Recreated endpoint starts unattached.
	if got := n.RootOf("vmA.nic"); got != "vmA.nic" {
		t.Fatalf("root = %q", got)
	}
}

func TestFlowAccounting(t *testing.T) {
	n := fabric(t)
	if got := n.Flows("vmA.nic", "vmB.nic"); got != 0 {
		t.Fatalf("flows = %d", got)
	}
	r1 := n.AcquireFlow("vmA.nic", "vmB.nic")
	r2 := n.AcquireFlow("hostA", "hostB")
	// Both flows land on the same root pair.
	if got := n.Flows("hostA", "vmB.nic"); got != 2 {
		t.Fatalf("flows = %d", got)
	}
	r1()
	r1() // double release is a no-op
	if got := n.Flows("hostA", "hostB"); got != 1 {
		t.Fatalf("flows = %d", got)
	}
	r2()
	if got := n.Flows("hostA", "hostB"); got != 0 {
		t.Fatalf("flows = %d", got)
	}
	// Intra-host transfers never contend.
	release := n.AcquireFlow("vmA.nic", "hostA")
	if got := n.Flows("vmA.nic", "hostA"); got != 0 {
		t.Fatalf("flows = %d", got)
	}
	release()
}
