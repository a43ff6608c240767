// Package scenario is the adversarial arms-race engine: generated attacker
// strategies played against a roster of detectors across every hypervisor
// backend, scored into a deterministic coverage matrix.
//
// An attacker strategy is a first-class value (Spec) drawn from a seeded
// strategy space: migration-timed CloudSkulk installs, KSM-aware
// page-content evasion (re-dirtying shared-candidate pages so dedup never
// finds a merge partner), dirty-rate shaping (hiding the install inside
// migration noise while keeping the captive guest quiet), and deeper
// nesting (an L3 stack behind an attacker shell VM). Every strategy is
// replayable from its (seed, spec) pair. Detectors sit behind one Detector
// interface; RunMatrix runs the full strategy × detector × backend cross
// product on the runner worker pool and the resulting artefact is
// byte-identical for any worker count. See DESIGN.md §15.
package scenario

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"cloudskulk/internal/sim"
)

// ErrBadSpec wraps every strategy-spec parse/validation failure.
var ErrBadSpec = errors.New("scenario: bad strategy spec")

// Kind is the strategy archetype.
type Kind int

// Strategy kinds.
const (
	// KindBaseline is the paper's attack as-is: a migration-timed
	// CloudSkulk install with static kernel/image impersonation.
	KindBaseline Kind = iota + 1
	// KindEvadeKSM is baseline plus KSM-aware content evasion: the
	// attacker keeps re-dirtying the RITM's shared-candidate pages
	// (kernel mirror, image mirror, push mirror) so they never hold a
	// stable merge partner for the detector's probe.
	KindEvadeKSM
	// KindShapeDirty is baseline with the install hidden inside migration
	// noise: the attacker drives a benign-looking dirty-page load during
	// the install window and keeps the captive guest's exit-generating
	// work low afterwards.
	KindShapeDirty
	// KindNestDeep is baseline plus one more layer: the attacker re-homes
	// the captive guest behind an attacker shell VM, pushing it to L3.
	KindNestDeep
)

var kindNames = map[Kind]string{
	KindBaseline:   "baseline",
	KindEvadeKSM:   "evade-ksm",
	KindShapeDirty: "shape-dirty",
	KindNestDeep:   "nest-deep",
}

// Kinds lists every strategy kind in generation order.
var Kinds = []Kind{KindBaseline, KindEvadeKSM, KindShapeDirty, KindNestDeep}

var kindByName = map[string]Kind{
	"baseline":    KindBaseline,
	"evade-ksm":   KindEvadeKSM,
	"shape-dirty": KindShapeDirty,
	"nest-deep":   KindNestDeep,
}

// String returns the kind's wire name.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Scope selects which of the RITM's shared-candidate regions an evasion
// strategy churns.
type Scope int

// Churn scopes.
const (
	// ScopeNone: no churn (every non-evasion strategy).
	ScopeNone Scope = iota
	// ScopeSharedKernel churns the RITM's kernel-image mirror.
	ScopeSharedKernel
	// ScopeSharedImage churns the RITM's vendor-image and push mirrors.
	ScopeSharedImage
	// ScopeSharedAll churns every shared-candidate region.
	ScopeSharedAll
)

var scopeNames = map[Scope]string{
	ScopeNone:         "none",
	ScopeSharedKernel: "shared-kernel",
	ScopeSharedImage:  "shared-image",
	ScopeSharedAll:    "shared-all",
}

var scopeByName = map[string]Scope{
	"none":          ScopeNone,
	"shared-kernel": ScopeSharedKernel,
	"shared-image":  ScopeSharedImage,
	"shared-all":    ScopeSharedAll,
}

// String returns the scope's wire name.
func (s Scope) String() string {
	if n, ok := scopeNames[s]; ok {
		return n
	}
	return fmt.Sprintf("scope(%d)", int(s))
}

// Spec is one fully parameterized attacker strategy. It is a comparable
// value: two equal Specs replay to identical attacks under the same seed.
type Spec struct {
	Kind Kind
	// Install is the delay from scenario start to the install attempt —
	// the migration-timing parameter.
	Install time.Duration
	// Churn is the evasion re-dirty interval (KindEvadeKSM only).
	Churn time.Duration
	// Scope selects the churned regions (KindEvadeKSM only).
	Scope Scope
	// DirtyPPS is the page-dirtying rate driven on the victim during the
	// install window (KindShapeDirty only).
	DirtyPPS int
	// Ops scales the captive guest's post-attack workload — the exit
	// telemetry the skew detector feeds on.
	Ops int
	// Depth is the nesting depth of the final stack: 2 for the paper's
	// attack, 3 for KindNestDeep.
	Depth int
}

// Render emits the canonical wire form, e.g.
//
//	kind=evade-ksm install=250ms churn=80ms scope=shared-all dirty=0 ops=4000 depth=2
//
// Parse(Render(s)) == s for every valid spec.
func (s Spec) Render() string {
	return fmt.Sprintf("kind=%s install=%s churn=%s scope=%s dirty=%d ops=%d depth=%d",
		s.Kind, s.Install, s.Churn, s.Scope, s.DirtyPPS, s.Ops, s.Depth)
}

// Validate checks the spec's parameters against the strategy space.
func (s Spec) Validate() error {
	if _, ok := kindNames[s.Kind]; !ok || s.Kind == 0 {
		return fmt.Errorf("%w: unknown kind %d", ErrBadSpec, int(s.Kind))
	}
	if _, ok := scopeNames[s.Scope]; !ok {
		return fmt.Errorf("%w: unknown scope %d", ErrBadSpec, int(s.Scope))
	}
	if s.Install < 0 || s.Install > time.Minute {
		return fmt.Errorf("%w: install delay %s out of [0, 1m]", ErrBadSpec, s.Install)
	}
	if s.Churn < 0 || s.Churn > 10*time.Second {
		return fmt.Errorf("%w: churn interval %s out of [0, 10s]", ErrBadSpec, s.Churn)
	}
	if s.DirtyPPS < 0 || s.DirtyPPS > 100_000 {
		return fmt.Errorf("%w: dirty rate %d out of [0, 100000]", ErrBadSpec, s.DirtyPPS)
	}
	if s.Ops < 0 || s.Ops > 1_000_000 {
		return fmt.Errorf("%w: ops %d out of [0, 1000000]", ErrBadSpec, s.Ops)
	}
	if s.Depth < 2 || s.Depth > 3 {
		return fmt.Errorf("%w: depth %d out of [2, 3]", ErrBadSpec, s.Depth)
	}
	if s.Kind == KindEvadeKSM && (s.Churn <= 0 || s.Scope == ScopeNone) {
		return fmt.Errorf("%w: evade-ksm needs churn > 0 and a scope", ErrBadSpec)
	}
	if s.Kind != KindEvadeKSM && (s.Churn != 0 || s.Scope != ScopeNone) {
		return fmt.Errorf("%w: churn/scope are evade-ksm parameters", ErrBadSpec)
	}
	if s.Kind == KindShapeDirty && s.DirtyPPS <= 0 {
		return fmt.Errorf("%w: shape-dirty needs dirty > 0", ErrBadSpec)
	}
	if s.Kind != KindShapeDirty && s.DirtyPPS != 0 {
		return fmt.Errorf("%w: dirty is a shape-dirty parameter", ErrBadSpec)
	}
	if s.Kind == KindNestDeep != (s.Depth == 3) {
		return fmt.Errorf("%w: depth 3 iff nest-deep", ErrBadSpec)
	}
	return nil
}

// Parse reads a spec from its wire form: whitespace-separated key=value
// fields in any order, each key at most once, kind required, every other
// field defaulting to its zero value (depth to 2). The result is
// validated.
//
//detlint:allow deadcode — test oracle: FuzzStrategySpec and the spec tests hold Parse(Render(s)) == s
func Parse(wire string) (Spec, error) {
	s := Spec{Depth: 2}
	seen := map[string]bool{}
	for _, field := range strings.Fields(wire) {
		key, val, ok := strings.Cut(field, "=")
		if !ok {
			return Spec{}, fmt.Errorf("%w: field %q is not key=value", ErrBadSpec, field)
		}
		if seen[key] {
			return Spec{}, fmt.Errorf("%w: duplicate field %q", ErrBadSpec, key)
		}
		seen[key] = true
		var err error
		switch key {
		case "kind":
			k, ok := kindByName[val]
			if !ok {
				err = fmt.Errorf("unknown kind %q", val)
			}
			s.Kind = k
		case "install":
			s.Install, err = time.ParseDuration(val)
		case "churn":
			s.Churn, err = time.ParseDuration(val)
		case "scope":
			sc, ok := scopeByName[val]
			if !ok {
				err = fmt.Errorf("unknown scope %q", val)
			}
			s.Scope = sc
		case "dirty":
			s.DirtyPPS, err = strconv.Atoi(val)
		case "ops":
			s.Ops, err = strconv.Atoi(val)
		case "depth":
			s.Depth, err = strconv.Atoi(val)
		default:
			err = fmt.Errorf("unknown field %q", key)
		}
		if err != nil {
			return Spec{}, fmt.Errorf("%w: %w", ErrBadSpec, err)
		}
	}
	if !seen["kind"] {
		return Spec{}, fmt.Errorf("%w: missing kind", ErrBadSpec)
	}
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	return s, nil
}

// Generation parameter pools. Small discrete sets keep generated strategies
// within the validated space while still exploring it.
var (
	genInstall = []time.Duration{0, 250 * time.Millisecond, 500 * time.Millisecond, time.Second}
	genChurn   = []time.Duration{40 * time.Millisecond, 80 * time.Millisecond, 160 * time.Millisecond}
	genScope   = []Scope{ScopeSharedKernel, ScopeSharedImage, ScopeSharedAll}
	genDirty   = []int{400, 800, 1600}
	genOps     = []int{2000, 4000, 8000}
	// genQuietOps keeps shape-dirty's captive guest under every backend's
	// skew evidence floor.
	genQuietOps = []int{100, 200}
)

// Generate draws n strategies from the seeded strategy space. The first
// len(Kinds) entries cover every kind once (the first evade-ksm always
// churns every shared region — the canonical dedup-evading strategy);
// further entries are random draws. Every returned spec validates.
func Generate(seed int64, n int) []Spec {
	rng := sim.NewRand(seed)
	out := make([]Spec, 0, n)
	for i := 0; i < n; i++ {
		var kind Kind
		if i < len(Kinds) {
			kind = Kinds[i]
		} else {
			kind = Kinds[rng.Intn(len(Kinds))]
		}
		s := Spec{
			Kind:    kind,
			Install: genInstall[rng.Intn(len(genInstall))],
			Ops:     genOps[rng.Intn(len(genOps))],
			Depth:   2,
		}
		switch kind {
		case KindEvadeKSM:
			s.Churn = genChurn[rng.Intn(len(genChurn))]
			if i < len(Kinds) {
				s.Scope = ScopeSharedAll
			} else {
				s.Scope = genScope[rng.Intn(len(genScope))]
			}
		case KindShapeDirty:
			s.DirtyPPS = genDirty[rng.Intn(len(genDirty))]
			s.Ops = genQuietOps[rng.Intn(len(genQuietOps))]
		case KindNestDeep:
			s.Depth = 3
		}
		if err := s.Validate(); err != nil {
			panic(err) // generation stays inside the validated space
		}
		out = append(out, s)
	}
	return out
}

// RenderSpecs renders a strategy list one wire form per line, sorted — the
// virtsh `scenario strategies` listing.
func RenderSpecs(specs []Spec) string {
	lines := make([]string, 0, len(specs))
	for _, s := range specs {
		lines = append(lines, s.Render())
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}
