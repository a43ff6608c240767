// Package vnet holds the deadcode rule's cases: functions a main reaches
// by a call, by a method value in a table, through an interface and from a
// nested module's main, beside a function only a test calls; and
// package-level variables a reached function, an init or an initializer
// uses, beside variables only a test reads.
package vnet

// mtu is referenced only from maxPkt's initializer.
var mtu = 1500

// maxPkt bounds a packet; Send reads it.
var maxPkt = mtu - 20

// sent is written only by init.
var sent int

func init() { sent = 0 }

// testTaps is read only by a test.
var testTaps = 3 // WANT deadcode

var (
	// dropped counts packets over maxPkt; Send writes it.
	dropped int
	// verbose is set only by a test.
	verbose bool // WANT deadcode
	// KeptLimit is a knob only the package's tests set, kept with a reason.
	//detlint:allow deadcode — fixture: a tuning knob the package's tests set
	KeptLimit = 8
)

// Blank declarations are never reported.
var _ Tap = (*Sniffer)(nil)

// Tap is an interface the program calls through: a method that satisfies
// it is a root however it is reached.
type Tap interface {
	Handle(pkt string) bool
}

// Network is the fixture's receiver.
type Network struct {
	taps []Tap
}

// New returns an empty network.
func New() *Network { return &Network{} }

// Commands is a command table; save is reached only as a method value in
// it.
func Commands() map[string]func(*Network) {
	return map[string]func(*Network){"save": (*Network).save}
}

func (n *Network) save() { n.taps = nil }

// AddTap attaches t.
func (n *Network) AddTap(t Tap) { n.taps = append(n.taps, t) }

// Send runs every tap through the interface.
func (n *Network) Send(pkt string) {
	if len(pkt) > maxPkt {
		dropped++
		return
	}
	for _, t := range n.taps {
		t.Handle(pkt)
	}
}

// Sniffer satisfies Tap; nothing names its Handle.
type Sniffer struct {
	seen int
}

func (s *Sniffer) Handle(string) bool {
	s.seen++
	return true
}

// Listening is reached only from the nested bench module's main.
func (n *Network) Listening() bool { return len(n.taps) > 0 }

// EndpointStats is called only by a test, and stats only by it.
func (n *Network) EndpointStats() int { return n.stats() } // WANT deadcode

func (n *Network) stats() int { return len(n.taps) } // WANT deadcode

// CheckInvariants is a kept test hook: its directive makes it a root, so
// checkTaps, which only it calls, needs no directive of its own.
//
//detlint:allow deadcode — invariant checker the package's tests run
func (n *Network) CheckInvariants() bool { return n.checkTaps() }

func (n *Network) checkTaps() bool {
	for _, t := range n.taps {
		if t == nil {
			return false
		}
	}
	return true
}

/* WANT detlint */ //detlint:allow deadcode — fixture: main calls Flush, so this directive suppresses nothing
func (n *Network) Flush() {
	n.taps = n.taps[:0]
}
