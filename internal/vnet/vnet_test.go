package vnet

import (
	"errors"
	"testing"
	"time"

	"cloudskulk/internal/sim"
)

func newNet(t *testing.T, names ...string) (*sim.Engine, *Network) {
	t.Helper()
	eng := sim.NewEngine(1)
	n := New(eng)
	for _, name := range names {
		if err := n.AddEndpoint(name); err != nil {
			t.Fatal(err)
		}
	}
	return eng, n
}

func TestAddEndpointDuplicate(t *testing.T) {
	_, n := newNet(t, "host")
	if err := n.AddEndpoint("host"); !errors.Is(err, ErrDuplicateEndpoint) {
		t.Fatalf("err = %v", err)
	}
	if !n.HasEndpoint("host") || n.HasEndpoint("ghost") {
		t.Fatal("HasEndpoint wrong")
	}
}

func TestListenConflicts(t *testing.T) {
	_, n := newNet(t, "host")
	h := func(*Packet) {}
	if err := n.Listen(Addr{"host", 22}, h); err != nil {
		t.Fatal(err)
	}
	if err := n.Listen(Addr{"host", 22}, h); !errors.Is(err, ErrPortInUse) {
		t.Fatalf("rebind err = %v", err)
	}
	if err := n.Listen(Addr{"nope", 22}, h); !errors.Is(err, ErrUnknownEndpoint) {
		t.Fatalf("unknown ep err = %v", err)
	}
	if !n.Listening(Addr{"host", 22}) {
		t.Fatal("Listening = false")
	}
	n.Unlisten(Addr{"host", 22})
	if n.Listening(Addr{"host", 22}) {
		t.Fatal("Unlisten didn't release")
	}
	n.Unlisten(Addr{"nope", 1}) // no panic
}

func TestSendDeliversAfterLatency(t *testing.T) {
	eng, n := newNet(t, "a", "b")
	var got *Packet
	var at time.Duration
	if err := n.Listen(Addr{"b", 80}, func(p *Packet) {
		got = p
		at = eng.Now()
	}); err != nil {
		t.Fatal(err)
	}
	pkt := &Packet{From: Addr{"a", 1000}, To: Addr{"b", 80}, Payload: []byte("hi")}
	if err := n.Send(pkt); err != nil {
		t.Fatal(err)
	}
	if got != nil {
		t.Fatal("delivered synchronously")
	}
	eng.Run()
	if got == nil {
		t.Fatal("not delivered")
	}
	if string(got.Payload) != "hi" {
		t.Fatalf("payload = %q", got.Payload)
	}
	if at != n.DefaultLink.Latency {
		t.Fatalf("delivered at %v, want link latency %v", at, n.DefaultLink.Latency)
	}
}

func TestSendErrors(t *testing.T) {
	_, n := newNet(t, "a", "b")
	pkt := func(from, to Addr) *Packet { return &Packet{From: from, To: to} }
	if err := n.Send(pkt(Addr{"x", 1}, Addr{"b", 80})); !errors.Is(err, ErrUnknownEndpoint) {
		t.Fatalf("unknown src err = %v", err)
	}
	if err := n.Send(pkt(Addr{"a", 1}, Addr{"x", 80})); !errors.Is(err, ErrUnknownEndpoint) {
		t.Fatalf("unknown dst err = %v", err)
	}
	if err := n.Send(pkt(Addr{"a", 1}, Addr{"b", 80})); !errors.Is(err, ErrNoListener) {
		t.Fatalf("no listener err = %v", err)
	}
	if err := n.Listen(Addr{"b", 80}, func(*Packet) {}); err != nil {
		t.Fatal(err)
	}
	n.SetLink("a", "b", LinkSpec{Bandwidth: 1 << 20, Down: true})
	if err := n.Send(pkt(Addr{"a", 1}, Addr{"b", 80})); !errors.Is(err, ErrLinkDown) {
		t.Fatalf("send over down link err = %v", err)
	}
}

func TestForwardChain(t *testing.T) {
	eng, n := newNet(t, "host", "ritm", "victim")
	var got *Packet
	if err := n.Listen(Addr{"victim", 22}, func(p *Packet) { got = p }); err != nil {
		t.Fatal(err)
	}
	// host:2222 -> ritm:2222 -> victim:22, the CloudSkulk double hop.
	if err := n.AddForward(Addr{"host", 2222}, Addr{"ritm", 2222}); err != nil {
		t.Fatal(err)
	}
	if err := n.AddForward(Addr{"ritm", 2222}, Addr{"victim", 22}); err != nil {
		t.Fatal(err)
	}
	dst, hops, err := n.ResolveForward(Addr{"host", 2222})
	if err != nil {
		t.Fatal(err)
	}
	if dst != (Addr{"victim", 22}) {
		t.Fatalf("resolved to %v", dst)
	}
	if len(hops) != 2 || hops[0] != "host" || hops[1] != "ritm" {
		t.Fatalf("hops = %v", hops)
	}
	p := &Packet{From: Addr{"client", 0}, To: Addr{"host", 2222}, Payload: []byte("ssh")}
	// "client" must exist to send.
	if err := n.AddEndpoint("client"); err != nil {
		t.Fatal(err)
	}
	if err := n.Send(p); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if got == nil {
		t.Fatal("not delivered through chain")
	}
	// Route must show the packet traversed the RITM.
	want := []string{"client", "host", "ritm", "victim"}
	if len(got.Route) != len(want) {
		t.Fatalf("route = %v, want %v", got.Route, want)
	}
	for i := range want {
		if got.Route[i] != want[i] {
			t.Fatalf("route = %v, want %v", got.Route, want)
		}
	}
	if got.To != (Addr{"victim", 22}) {
		t.Fatalf("final To = %v", got.To)
	}
}

func TestForwardLoopDetected(t *testing.T) {
	_, n := newNet(t, "a", "b")
	if err := n.AddForward(Addr{"a", 1}, Addr{"b", 1}); err != nil {
		t.Fatal(err)
	}
	if err := n.AddForward(Addr{"b", 1}, Addr{"a", 1}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := n.ResolveForward(Addr{"a", 1}); !errors.Is(err, ErrForwardLoop) {
		t.Fatalf("err = %v", err)
	}
}

func TestForwardToUnknownEndpointFails(t *testing.T) {
	_, n := newNet(t, "a")
	if err := n.AddForward(Addr{"a", 1}, Addr{"gone", 9}); err != nil {
		t.Fatal(err)
	}
	p := &Packet{From: Addr{"a", 5}, To: Addr{"a", 1}}
	if err := n.Send(p); !errors.Is(err, ErrUnknownEndpoint) {
		t.Fatalf("err = %v", err)
	}
}

func TestRemoveForward(t *testing.T) {
	_, n := newNet(t, "a", "b")
	if err := n.AddForward(Addr{"a", 1}, Addr{"b", 2}); err != nil {
		t.Fatal(err)
	}
	n.RemoveForward(Addr{"a", 1})
	dst, _, err := n.ResolveForward(Addr{"a", 1})
	if err != nil || dst != (Addr{"a", 1}) {
		t.Fatalf("dst=%v err=%v", dst, err)
	}
}

func TestRemoveEndpointCleansRules(t *testing.T) {
	_, n := newNet(t, "a", "b")
	if err := n.AddForward(Addr{"a", 1}, Addr{"b", 2}); err != nil {
		t.Fatal(err)
	}
	n.RemoveEndpoint("a")
	if n.HasEndpoint("a") {
		t.Fatal("endpoint survived removal")
	}
	if _, ok := n.forwards[Addr{"a", 1}]; ok {
		t.Fatal("forward rule survived removal")
	}
}

// TestRemoveEndpointDeletesExactlyItsForwards: removing an endpoint
// deletes the forwards that source from it — including one overwritten
// in place and not one removed earlier — and keeps every other rule,
// those that only target it (a dangling hostfwd) among them.
func TestRemoveEndpointDeletesExactlyItsForwards(t *testing.T) {
	_, n := newNet(t, "host", "vm", "other")
	add := func(from, to Addr) {
		t.Helper()
		if err := n.AddForward(from, to); err != nil {
			t.Fatal(err)
		}
	}
	add(Addr{"vm", 1}, Addr{"other", 1})
	add(Addr{"vm", 2}, Addr{"other", 2})
	add(Addr{"vm", 2}, Addr{"other", 3}) // overwrite: still one rule
	add(Addr{"vm", 4}, Addr{"other", 4})
	n.RemoveForward(Addr{"vm", 4})
	add(Addr{"host", 2222}, Addr{"vm", 22})   // targets vm only
	add(Addr{"other", 5}, Addr{"host", 5})    // unrelated
	add(Addr{"host", 3333}, Addr{"other", 6}) // unrelated
	n.RemoveEndpoint("vm")
	want := map[Addr]Addr{
		{"host", 2222}: {"vm", 22},
		{"other", 5}:   {"host", 5},
		{"host", 3333}: {"other", 6},
	}
	if len(n.forwards) != len(want) {
		t.Fatalf("forwards after removal = %v, want %v", n.forwards, want)
	}
	for from, to := range want {
		if n.forwards[from] != to {
			t.Fatalf("forwards after removal = %v, want %v", n.forwards, want)
		}
	}
	// A recreated endpoint starts with no forwards of its own.
	if err := n.AddEndpoint("vm"); err != nil {
		t.Fatal(err)
	}
	if got, ok := n.fwdPorts["vm"]; ok {
		t.Fatalf("recreated endpoint lists forwards %v", got)
	}
}

func TestTapObservesAndModifies(t *testing.T) {
	eng, n := newNet(t, "src", "mid", "dst")
	var got *Packet
	if err := n.Listen(Addr{"dst", 80}, func(p *Packet) { got = p }); err != nil {
		t.Fatal(err)
	}
	if err := n.AddForward(Addr{"mid", 80}, Addr{"dst", 80}); err != nil {
		t.Fatal(err)
	}
	var seen []string
	err := n.AddTap("mid", TapFunc(func(p *Packet) Verdict {
		seen = append(seen, string(p.Payload))
		p.Payload = []byte("tampered")
		return VerdictPass
	}))
	if err != nil {
		t.Fatal(err)
	}
	p := &Packet{From: Addr{"src", 1}, To: Addr{"mid", 80}, Payload: []byte("original")}
	if err := n.Send(p); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if len(seen) != 1 || seen[0] != "original" {
		t.Fatalf("tap saw %v", seen)
	}
	if got == nil || string(got.Payload) != "tampered" {
		t.Fatalf("delivered payload = %q, want tampered", got.Payload)
	}
}

func TestTapDrops(t *testing.T) {
	eng, n := newNet(t, "src", "dst")
	delivered := 0
	if err := n.Listen(Addr{"dst", 80}, func(*Packet) { delivered++ }); err != nil {
		t.Fatal(err)
	}
	if err := n.AddTap("dst", TapFunc(func(*Packet) Verdict { return VerdictDrop })); err != nil {
		t.Fatal(err)
	}
	p := &Packet{From: Addr{"src", 1}, To: Addr{"dst", 80}}
	if err := n.Send(p); !errors.Is(err, ErrDropped) {
		t.Fatalf("err = %v", err)
	}
	eng.Run()
	if delivered != 0 {
		t.Fatalf("listener ran %d times for a dropped packet", delivered)
	}
}

func TestAddTapUnknownEndpoint(t *testing.T) {
	_, n := newNet(t)
	if err := n.AddTap("nope", TapFunc(func(*Packet) Verdict { return VerdictPass })); !errors.Is(err, ErrUnknownEndpoint) {
		t.Fatalf("err = %v", err)
	}
}

func TestLinkOverridesAndSymmetry(t *testing.T) {
	_, n := newNet(t, "a", "b")
	spec := LinkSpec{Bandwidth: 1 << 20, Latency: time.Millisecond}
	n.SetLink("b", "a", spec)
	if got := n.Link("a", "b"); got != spec {
		t.Fatalf("link = %+v", got)
	}
	if got := n.Link("a", "c"); got != n.DefaultLink {
		t.Fatalf("default link = %+v", got)
	}
}

func TestPacketClone(t *testing.T) {
	p := &Packet{
		From:    Addr{"a", 1},
		To:      Addr{"b", 2},
		Payload: []byte("x"),
		Route:   []string{"a"},
	}
	c := p.Clone()
	c.Payload[0] = 'y'
	c.Route[0] = "z"
	if p.Payload[0] != 'x' || p.Route[0] != "a" {
		t.Fatal("Clone shares backing arrays")
	}
}

func TestAddrString(t *testing.T) {
	if got := (Addr{"host", 5555}).String(); got != "host:5555" {
		t.Fatalf("Addr.String = %q", got)
	}
}
