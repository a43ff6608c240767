package vnet

import "testing"

func TestEndpointStats(t *testing.T) {
	n := New()
	n.AddTap(&Sniffer{})
	verbose = true
	if n.EndpointStats() != 1 || !n.CheckInvariants() || testTaps != 3 || KeptLimit != 8 || testMTU != 9000 || KeptMTU != 1280 {
		t.Fatal("stats")
	}
}
