package cpu

import (
	"time"

	"cloudskulk/internal/sim"
	"cloudskulk/internal/telemetry"
)

// VCPU executes modelled operations on a simulation engine, advancing
// virtual time by each operation's cost (with measurement noise) and
// keeping per-class accounting.
type VCPU struct {
	eng   *sim.Engine
	model Model
	level Level

	// Noise is the relative standard deviation applied per Exec batch,
	// modelling run-to-run measurement variance. Zero means exact costs.
	Noise float64

	tel *Telemetry
}

// Telemetry holds a vCPU's counter handles pre-resolved per class, so
// Exec pays only a nil check plus atomic adds — no map lookups or string
// formatting on the hot path. exitFactor and faultFactor pre-bake
// Model.ExitsAt for the level: real exits per profile exit and per nested
// fault respectively. The handles depend only on the registry, the model
// and the level, so every vCPU sharing those can share one Telemetry.
type Telemetry struct {
	ops         [ClassIO + 1]*telemetry.Counter // cpu_ops_total{class,level}
	exits       [ClassIO + 1]*telemetry.Counter // cpu_exits_total{class,level}
	exitFactor  uint64
	faultFactor uint64
}

// SetTelemetry attaches (or with nil detaches) a metrics registry. Every
// Exec then counts operations and real L0-handled exits by class at this
// vCPU's level.
func (v *VCPU) SetTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		v.tel = nil
		return
	}
	v.tel = NewTelemetry(reg, v.model, v.level)
}

// UseTelemetry attaches handles resolved by NewTelemetry for this vCPU's
// model and level (nil detaches): SetTelemetry without the lookups.
func (v *VCPU) UseTelemetry(t *Telemetry) { v.tel = t }

// NewTelemetry resolves the per-class counters of vCPUs running at level
// under model on reg.
func NewTelemetry(reg *telemetry.Registry, model Model, level Level) *Telemetry {
	t := &Telemetry{}
	switch level {
	case L0:
		// Bare metal: no exits.
	case L1:
		t.exitFactor = 1
	default:
		// L2 and deeper: mirror Model.ExitsAt — every level past L2 wraps
		// the multiplication again and each nested fault multiplies too.
		per := 1 + model.ExitMultiplier
		faults := 1
		for l := L2; l < level; l++ {
			per = 1 + model.ExitMultiplier*per
			faults *= model.ExitMultiplier
		}
		t.exitFactor = uint64(per)
		t.faultFactor = uint64(faults)
	}
	names := &seriesNames[level]
	for c := ClassALU; c <= ClassIO; c++ {
		t.ops[c] = reg.Counter(names.ops[c])
		t.exits[c] = reg.Counter(names.exits[c])
	}
	return t
}

// seriesNames holds, per level a guest can run at (nesting stops at L3),
// the per-class counter names NewTelemetry resolves, rendered once.
var seriesNames = func() (s [L3 + 1]struct{ ops, exits [ClassIO + 1]string }) {
	for l := range s {
		lvl := Level(l).String()
		for c := ClassALU; c <= ClassIO; c++ {
			s[l].ops[c] = telemetry.Key("cpu_ops_total", "class", c.String(), "level", lvl)
			s[l].exits[c] = telemetry.Key("cpu_exits_total", "class", c.String(), "level", lvl)
		}
	}
	return s
}()

// NewVCPU returns a vCPU running at the given level under the given model.
func NewVCPU(eng *sim.Engine, model Model, level Level) *VCPU {
	return &VCPU{
		eng:   eng,
		model: model,
		level: level,
	}
}

// Level returns the virtualization level the vCPU runs at.
func (v *VCPU) Level() Level { return v.level }

// Engine returns the simulation engine the vCPU runs on.
func (v *VCPU) Engine() *sim.Engine { return v.eng }

// CostOf returns the exact (noise-free) cost of one execution of op at this
// vCPU's level.
func (v *VCPU) CostOf(op Op) Cost {
	return v.model.Cost(op, v.level)
}

// Exec runs op n times, advances virtual time by the (noisy) total cost,
// and returns the elapsed virtual time. n <= 0 is a no-op.
func (v *VCPU) Exec(op Op, n int) time.Duration {
	if n <= 0 {
		return 0
	}
	exact := (v.CostOf(op) * Cost(n)).Duration()
	elapsed := exact
	if v.Noise > 0 {
		elapsed = v.eng.GaussDuration(exact, v.Noise)
	}
	v.eng.Advance(elapsed)
	if t := v.tel; t != nil && op.Class >= 0 && int(op.Class) < len(t.ops) {
		t.ops[op.Class].Add(uint64(n))
		e := uint64(op.Profile.Exits)*t.exitFactor + uint64(op.Profile.NestedFaults)*t.faultFactor
		if e > 0 {
			t.exits[op.Class].Add(e * uint64(n))
		}
	}
	return elapsed
}

// MeasureMean runs op reps times with this vCPU's noise applied and returns
// the mean per-op cost, the way lmbench reports a measurement.
func (v *VCPU) MeasureMean(op Op, reps int) Cost {
	if reps <= 0 {
		return 0
	}
	elapsed := v.Exec(op, reps)
	return DurationCost(elapsed) / Cost(reps)
}
