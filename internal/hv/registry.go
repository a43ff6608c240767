package hv

import (
	"errors"
	"fmt"
	"sort"
	"strings"
)

// ErrUnknownBackend is returned by Lookup for a name nobody registered;
// the wrapped message lists every registered name.
var ErrUnknownBackend = errors.New("hv: unknown backend")

// registry maps backend name -> backend. Registration happens in package
// init functions (this package registers Baseline; internal/hv/backends
// registers the alternates), so the contents are fixed before any
// simulation starts and lookups stay deterministic.
var registry = make(map[string]Backend)

func init() {
	MustRegister(Baseline())
}

// Register adds a backend to the registry. The name must be non-empty and
// not yet taken, and the profile must be usable: positive costs, a
// COW-break write detectably slower than a regular write (the invariant
// the paper's detector rests on — a backend violating it would silently
// blind every KSM-timing experiment), and a zero fraction and vCPU noise
// in [0, 1]. Range checks read !(x >= lo && x <= hi), which NaN fails.
func Register(b Backend) error {
	if b.Name == "" {
		return errors.New("hv: register: empty backend name")
	}
	if _, dup := registry[b.Name]; dup {
		return fmt.Errorf("hv: register: backend %q already registered", b.Name)
	}
	p := b.Profile
	if p.CPU.ExitCost <= 0 || p.CPU.ExitMultiplier < 1 || p.CPU.NestedFaultCost <= 0 {
		return fmt.Errorf("hv: register %q: exit-cost model not calibrated", b.Name)
	}
	if p.KSM.RegularWrite <= 0 || p.KSM.CowBreakWrite < 2*p.KSM.RegularWrite {
		return fmt.Errorf("hv: register %q: KSM write-timing gap too small to detect", b.Name)
	}
	if p.BootTime <= 0 || !(p.ZeroFraction >= 0 && p.ZeroFraction <= 1) {
		return fmt.Errorf("hv: register %q: boot profile out of range", b.Name)
	}
	if !(p.VCPUNoise >= 0 && p.VCPUNoise <= 1) {
		return fmt.Errorf("hv: register %q: vCPU noise %v out of [0, 1]", b.Name, p.VCPUNoise)
	}
	registry[b.Name] = b
	return nil
}

// MustRegister registers a backend and panics on failure — the init-time
// form used for built-ins, where a bad profile is a programming error.
func MustRegister(b Backend) {
	if err := Register(b); err != nil {
		panic(err)
	}
}

// Lookup resolves a backend by name. The empty name resolves to
// DefaultName, so option plumbing can pass a zero value through
// unconditionally. Unknown names return ErrUnknownBackend with the
// registered names listed.
func Lookup(name string) (Backend, error) {
	if name == "" {
		name = DefaultName
	}
	b, ok := registry[name]
	if !ok {
		return Backend{}, fmt.Errorf("%w %q (registered: %s)",
			ErrUnknownBackend, name, strings.Join(Names(), ", "))
	}
	return b, nil
}

// Names returns the registered backend names, sorted.
func Names() []string {
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// All returns the registered backends, sorted by name.
func All() []Backend {
	names := Names()
	out := make([]Backend, 0, len(names))
	for _, name := range names {
		out = append(out, registry[name])
	}
	return out
}
