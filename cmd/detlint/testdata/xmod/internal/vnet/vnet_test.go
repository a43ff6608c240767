package vnet

import "testing"

func TestEndpointStats(t *testing.T) {
	n := New()
	n.AddTap(&Sniffer{})
	if n.EndpointStats() != 1 || !n.CheckInvariants() {
		t.Fatal("stats")
	}
}
