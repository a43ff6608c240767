// Package vnet models the network the attack and its evaluation run over:
// named endpoints (hosts and VM NICs), port listeners, QEMU-style host
// port-forwarding chains, per-endpoint packet taps (the rootkit-in-the-
// middle's interception point), and bandwidth/latency-modelled bulk
// transfers (live migration traffic, netperf streams).
package vnet

import (
	"errors"
	"fmt"
	"time"

	"cloudskulk/internal/sim"
	"cloudskulk/internal/telemetry"
)

// Errors callers match on.
var (
	ErrDuplicateEndpoint = errors.New("vnet: endpoint already exists")
	ErrUnknownEndpoint   = errors.New("vnet: unknown endpoint")
	ErrPortInUse         = errors.New("vnet: port already bound")
	ErrNoListener        = errors.New("vnet: no listener")
	ErrForwardLoop       = errors.New("vnet: forwarding loop")
	ErrDropped           = errors.New("vnet: packet dropped by tap")
	ErrLinkDown          = errors.New("vnet: link down")
)

// Addr is an (endpoint, port) pair.
type Addr struct {
	Endpoint string
	Port     int
}

// String renders the address as endpoint:port.
func (a Addr) String() string { return fmt.Sprintf("%s:%d", a.Endpoint, a.Port) }

// Packet is one unit of application traffic. Payload is application-defined
// bytes; taps may inspect and rewrite it.
type Packet struct {
	From    Addr
	To      Addr
	Payload []byte
	// Route records each endpoint the packet traversed, including
	// forwarding hops — useful for asserting the RITM actually sits on
	// the path.
	Route []string
}

// Clone deep-copies the packet (taps that store packets must clone).
func (p *Packet) Clone() *Packet {
	c := *p
	c.Payload = append([]byte(nil), p.Payload...)
	c.Route = append([]string(nil), p.Route...)
	return &c
}

// Verdict is a tap's decision about a packet.
type Verdict int

// Tap verdicts.
const (
	// VerdictPass lets the packet continue (possibly after the tap
	// mutated its payload).
	VerdictPass Verdict = iota + 1
	// VerdictDrop discards the packet.
	VerdictDrop
)

// Tap observes (and may rewrite or drop) every packet traversing an
// endpoint. The CloudSkulk passive services are pass-only taps; active
// services drop or modify.
type Tap interface {
	// Handle inspects pkt. It may mutate pkt.Payload in place before
	// returning VerdictPass, or return VerdictDrop to discard.
	Handle(pkt *Packet) Verdict
}

// TapFunc adapts a function to the Tap interface.
type TapFunc func(pkt *Packet) Verdict

// Handle implements Tap.
func (f TapFunc) Handle(pkt *Packet) Verdict { return f(pkt) }

var _ Tap = TapFunc(nil)

// LinkSpec describes the modelled capacity between two endpoints.
type LinkSpec struct {
	// Bandwidth in bytes per second.
	Bandwidth int64
	// Latency is the one-way propagation delay.
	Latency time.Duration
	// Down simulates a failed link: transfers and sends error.
	Down bool
}

// Handler receives delivered packets on a bound port.
type Handler func(pkt *Packet)

// endpoint is one named network presence, keyed by its name. Its listener
// map is created on first use: most endpoints (every guest NIC a fleet
// deploys) never bind a port.
type endpoint struct {
	listeners map[int]Handler
	taps      []Tap
}

type linkKey struct{ a, b string }

// Network is the top-level fabric.
type Network struct {
	eng       *sim.Engine
	endpoints map[string]*endpoint
	forwards  map[Addr]Addr
	// fwdPorts lists, per endpoint that sources forward rules, the ports
	// they forward, so RemoveEndpoint deletes them without walking every
	// rule on the fabric.
	fwdPorts map[string][]int
	links    map[linkKey]LinkSpec

	// attachments maps an endpoint to the endpoint it is physically
	// carried by (a VM NIC rides its host's uplink; a nested NIC rides
	// the enclosing VM's NIC). Link lookup between two endpoints with no
	// explicit pair link falls back to the link between their attachment
	// roots, so one host<->host link governs all traffic between guests
	// of those hosts.
	attachments map[string]string
	// flows counts concurrent bulk transfers per attachment root, so
	// simultaneous migrations sharing a physical uplink (many sources
	// converging on one destination host, or one source fanning out)
	// contend for its bandwidth.
	flows map[string]int

	// DefaultLink is used for endpoint pairs without an explicit link.
	// The default models a host-internal (loopback/bridge) path, which is
	// all the CloudSkulk attack needs — it runs on one physical machine.
	DefaultLink LinkSpec

	// maxForwardHops bounds forwarding-chain resolution.
	maxForwardHops int

	tel        *telemetry.Registry
	telSent    map[string]*telemetry.Counter // per-root sent-bytes, cached
	telDropped *telemetry.Counter
	telFlows   *telemetry.Counter
	telContend *telemetry.Counter
}

// New returns an empty network on the given engine. The default link models
// an intra-host path: high bandwidth, microsecond latency.
func New(eng *sim.Engine) *Network {
	return &Network{
		eng:         eng,
		endpoints:   make(map[string]*endpoint),
		forwards:    make(map[Addr]Addr),
		fwdPorts:    make(map[string][]int),
		links:       make(map[linkKey]LinkSpec),
		attachments: make(map[string]string),
		flows:       make(map[string]int),
		DefaultLink: LinkSpec{
			Bandwidth: 2 << 30, // 2 GiB/s intra-host
			Latency:   50 * time.Microsecond,
		},
		maxForwardHops: 16,
	}
}

// SetTelemetry attaches (or with nil detaches) a metrics registry. Sends
// count bytes against the sender's attachment root, tap drops are
// counted, and bulk-flow acquisitions record contention (an acquisition
// whose path already carries another flow).
func (n *Network) SetTelemetry(reg *telemetry.Registry) {
	n.tel = reg
	if reg == nil {
		n.telSent, n.telDropped, n.telFlows, n.telContend = nil, nil, nil, nil
		return
	}
	n.telSent = make(map[string]*telemetry.Counter)
	n.telDropped = reg.Counter("vnet_dropped_packets_total")
	n.telFlows = reg.Counter("vnet_flows_total")
	n.telContend = reg.Counter("vnet_flow_contended_total")
}

// sentCounter returns the cached per-root sent-bytes counter.
func (n *Network) sentCounter(root string) *telemetry.Counter {
	if n.tel == nil {
		return nil
	}
	c, ok := n.telSent[root]
	if !ok {
		c = n.tel.Counter(telemetry.Key("vnet_sent_bytes_total", "root", root))
		n.telSent[root] = c
	}
	return c
}

// AddEndpoint registers a new named endpoint.
func (n *Network) AddEndpoint(name string) error {
	if _, ok := n.endpoints[name]; ok {
		return fmt.Errorf("%w: %q", ErrDuplicateEndpoint, name)
	}
	n.endpoints[name] = &endpoint{}
	return nil
}

// RemoveEndpoint deletes an endpoint, its listeners, taps, and any forward
// rules that source from it. Forward rules *targeting* it are left in place
// and will fail at send time, exactly like a dangling hostfwd.
func (n *Network) RemoveEndpoint(name string) {
	for _, port := range n.fwdPorts[name] {
		delete(n.forwards, Addr{Endpoint: name, Port: port})
	}
	delete(n.fwdPorts, name)
	delete(n.endpoints, name)
	delete(n.attachments, name)
}

// Attach records that child's traffic is physically carried by parent
// (a VM NIC attaches to its host; a nested VM's NIC attaches to the
// enclosing VM's NIC). Both endpoints must exist.
func (n *Network) Attach(child, parent string) error {
	if _, ok := n.endpoints[child]; !ok {
		return fmt.Errorf("%w: %q", ErrUnknownEndpoint, child)
	}
	if _, ok := n.endpoints[parent]; !ok {
		return fmt.Errorf("%w: %q", ErrUnknownEndpoint, parent)
	}
	n.attachments[child] = parent
	return nil
}

// RootOf follows the attachment chain from name to the endpoint that
// physically carries its traffic (name itself when unattached).
func (n *Network) RootOf(name string) string {
	for i := 0; i < n.maxForwardHops; i++ {
		parent, ok := n.attachments[name]
		if !ok {
			return name
		}
		name = parent
	}
	return name
}

// HasEndpoint reports whether name is registered.
//
//detlint:allow deadcode — cleanup checker: kvm's create and kill tests prove a torn-down VM leaves no endpoint
func (n *Network) HasEndpoint(name string) bool {
	_, ok := n.endpoints[name]
	return ok
}

// Listen binds handler to addr. It fails if the endpoint does not exist or
// the port is taken.
func (n *Network) Listen(addr Addr, h Handler) error {
	ep, ok := n.endpoints[addr.Endpoint]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownEndpoint, addr.Endpoint)
	}
	if _, taken := ep.listeners[addr.Port]; taken {
		return fmt.Errorf("%w: %s", ErrPortInUse, addr)
	}
	if ep.listeners == nil {
		ep.listeners = make(map[int]Handler)
	}
	ep.listeners[addr.Port] = h
	return nil
}

// Unlisten releases a port binding. Unknown bindings are a no-op.
func (n *Network) Unlisten(addr Addr) {
	if ep, ok := n.endpoints[addr.Endpoint]; ok {
		delete(ep.listeners, addr.Port)
	}
}

// Listening reports whether addr has a bound handler.
//
//detlint:allow deadcode — cleanup checker: TestFailedCreateVMLeavesNoTrace proves a failed create leaves no listener
func (n *Network) Listening(addr Addr) bool {
	ep, ok := n.endpoints[addr.Endpoint]
	if !ok {
		return false
	}
	_, bound := ep.listeners[addr.Port]
	return bound
}

// AddForward installs a QEMU-hostfwd-style rule: traffic delivered to
// `from` is redirected to `to`. Rules may chain (host -> rootkit VM ->
// nested VM), which is precisely how CloudSkulk keeps the victim reachable.
func (n *Network) AddForward(from, to Addr) error {
	if _, ok := n.endpoints[from.Endpoint]; !ok {
		return fmt.Errorf("%w: %q", ErrUnknownEndpoint, from.Endpoint)
	}
	if _, exists := n.forwards[from]; !exists {
		n.fwdPorts[from.Endpoint] = append(n.fwdPorts[from.Endpoint], from.Port)
	}
	n.forwards[from] = to
	return nil
}

// RemoveForward deletes a forwarding rule.
func (n *Network) RemoveForward(from Addr) {
	if _, ok := n.forwards[from]; !ok {
		return
	}
	delete(n.forwards, from)
	ports := n.fwdPorts[from.Endpoint]
	for i, port := range ports {
		if port == from.Port {
			ports = append(ports[:i], ports[i+1:]...)
			break
		}
	}
	if len(ports) == 0 {
		delete(n.fwdPorts, from.Endpoint)
	} else {
		n.fwdPorts[from.Endpoint] = ports
	}
}

// ResolveForward follows the forwarding chain from addr and returns the
// final destination plus the intermediate endpoints traversed. It errors on
// loops.
func (n *Network) ResolveForward(addr Addr) (Addr, []string, error) {
	return n.ResolveForwardAppend(nil, addr)
}

// ResolveForwardAppend is ResolveForward appending the hops to hops, so a
// caller holding a buffer resolves the usual short chain without
// allocating.
func (n *Network) ResolveForwardAppend(hops []string, addr Addr) (Addr, []string, error) {
	cur := addr
	for i := 0; i < n.maxForwardHops; i++ {
		next, ok := n.forwards[cur]
		if !ok {
			return cur, hops, nil
		}
		hops = append(hops, cur.Endpoint)
		cur = next
	}
	return cur, hops, fmt.Errorf("%w: starting at %s", ErrForwardLoop, addr)
}

// SetLink installs a symmetric link spec between endpoints a and b.
func (n *Network) SetLink(a, b string, spec LinkSpec) {
	n.links[n.key(a, b)] = spec
}

// Link returns the link spec between a and b: an explicit pair link if
// one is set, otherwise the link between the endpoints' attachment roots
// (the host<->host path their traffic physically crosses), otherwise the
// default intra-host link.
func (n *Network) Link(a, b string) LinkSpec {
	if spec, ok := n.links[n.key(a, b)]; ok {
		return spec
	}
	if ra, rb := n.RootOf(a), n.RootOf(b); ra != a || rb != b {
		if spec, ok := n.links[n.key(ra, rb)]; ok {
			return spec
		}
	}
	return n.DefaultLink
}

// AcquireFlow registers one bulk transfer between a and b on both
// endpoints' attachment roots and returns a release function. Flow
// counts let concurrent transfers sharing a physical uplink split its
// bandwidth — a storm of migrations converging on one host saturates
// that host's NIC even when every stream comes from a different source.
// Transfers whose endpoints share a root (intra-host) are never counted:
// the loopback path is uncontended.
func (n *Network) AcquireFlow(a, b string) func() {
	ra, rb := n.RootOf(a), n.RootOf(b)
	if ra == rb {
		return func() {}
	}
	n.telFlows.Inc()
	if n.flows[ra] > 0 || n.flows[rb] > 0 {
		n.telContend.Inc()
	}
	n.flows[ra]++
	n.flows[rb]++
	released := false
	return func() {
		if released {
			return
		}
		released = true
		for _, r := range []string{ra, rb} {
			if n.flows[r] > 1 {
				n.flows[r]--
			} else {
				delete(n.flows, r)
			}
		}
	}
}

// Flows reports the number of concurrent bulk transfers a path between
// a and b must share capacity with: the busier of the two attachment
// roots' flow counts.
func (n *Network) Flows(a, b string) int {
	fa, fb := n.flows[n.RootOf(a)], n.flows[n.RootOf(b)]
	if fa > fb {
		return fa
	}
	return fb
}

func (n *Network) key(a, b string) linkKey {
	if a > b {
		a, b = b, a
	}
	return linkKey{a, b}
}

// Send resolves forwarding from pkt.To, runs every traversed endpoint's
// taps (in hop order, destination last), and delivers the packet to the
// final listener after the link latency. The returned error reports
// drops and missing listeners synchronously; delivery itself happens as a
// scheduled event so ordering follows virtual time.
func (n *Network) Send(pkt *Packet) error {
	if _, ok := n.endpoints[pkt.From.Endpoint]; !ok {
		return fmt.Errorf("%w: %q", ErrUnknownEndpoint, pkt.From.Endpoint)
	}
	dst, hops, err := n.ResolveForward(pkt.To)
	if err != nil {
		return err
	}
	dstEP, ok := n.endpoints[dst.Endpoint]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownEndpoint, dst.Endpoint)
	}
	handler, ok := dstEP.listeners[dst.Port]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoListener, dst)
	}

	n.sentCounter(n.RootOf(pkt.From.Endpoint)).Add(uint64(len(pkt.Payload)))
	pkt.Route = append(pkt.Route, pkt.From.Endpoint)
	// Forwarding is destination NAT: taps along the path (and the final
	// listener) see the resolved destination.
	pkt.To = dst

	// Taps run on each forwarding hop, then on the destination. This is
	// where a rootkit VM interposed on the path sees the traffic.
	for _, hop := range hops {
		ep, ok := n.endpoints[hop]
		if !ok {
			continue
		}
		pkt.Route = append(pkt.Route, hop)
		if v := runTaps(ep, pkt); v == VerdictDrop {
			n.telDropped.Inc()
			return fmt.Errorf("%w: at %s", ErrDropped, hop)
		}
	}
	pkt.Route = append(pkt.Route, dst.Endpoint)
	if v := runTaps(dstEP, pkt); v == VerdictDrop {
		n.telDropped.Inc()
		return fmt.Errorf("%w: at %s", ErrDropped, dst.Endpoint)
	}

	spec := n.Link(pkt.From.Endpoint, dst.Endpoint)
	if spec.Down {
		return fmt.Errorf("%w: %s<->%s", ErrLinkDown, pkt.From.Endpoint, dst.Endpoint)
	}
	n.eng.Schedule(spec.Latency, "vnet.deliver", func() { handler(pkt) })
	return nil
}

func runTaps(ep *endpoint, pkt *Packet) Verdict {
	for _, t := range ep.taps {
		if t.Handle(pkt) == VerdictDrop {
			return VerdictDrop
		}
	}
	return VerdictPass
}

// AddTap attaches a tap to an endpoint; it sees all packets forwarded
// through or delivered to that endpoint.
func (n *Network) AddTap(name string, t Tap) error {
	ep, ok := n.endpoints[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownEndpoint, name)
	}
	ep.taps = append(ep.taps, t)
	return nil
}
