// Package cpu models virtual CPU execution cost across virtualization
// levels L0 (bare metal), L1 (guest), and L2 (nested guest).
//
// The model follows the mechanics the Turtles project documented for nested
// x86 virtualization and that the paper's Tables II-III exhibit:
//
//   - Pure ALU/FPU work runs at native speed at every level (hardware
//     virtualization does not intercept arithmetic); only a small
//     cache/steal drift appears at L2.
//   - Operations that cause VM exits (IPIs, port/MMIO I/O, privileged
//     instructions) pay one hardware exit each at L1. At L2 every exit must
//     be reflected to the L1 hypervisor, whose *own handling code* performs
//     privileged operations (VMREAD/VMWRITE, ...) that each trap to L0 —
//     the "exit multiplication" effect. One L2 exit therefore costs a
//     reflection plus ExitMultiplier real exits.
//   - Page-table-heavy operations (fork) run exit-free at L1 thanks to
//     two-dimensional paging (EPT), but at L2 the L1 hypervisor's EPT must
//     be emulated by L0 with shadow structures, so L2 page-table updates
//     fault. These are the NestedFaults in an op's profile.
//
// Parameter values are calibrated to the paper's testbed (Intel i7-4790,
// QEMU 2.9/KVM); see DESIGN.md §1 for the calibration story.
package cpu

import (
	"fmt"
	"strconv"
	"time"
)

// Cost is a virtual-time cost in picoseconds. The lmbench arithmetic table
// reports sub-nanosecond latencies (0.13 ns integer add), which
// time.Duration's nanosecond resolution cannot represent, so operation
// costs carry picosecond resolution and are converted to durations only
// when accumulated.
type Cost int64

// Picoseconds builds a Cost from a picosecond count.
func Picoseconds(ps int64) Cost { return Cost(ps) }

// Nanos builds a Cost from (possibly fractional) nanoseconds.
func Nanos(ns float64) Cost { return Cost(ns * 1e3) }

// Micros builds a Cost from (possibly fractional) microseconds.
func Micros(us float64) Cost { return Cost(us * 1e6) }

// DurationCost converts a time.Duration to a Cost.
func DurationCost(d time.Duration) Cost { return Cost(d) * 1e3 }

// Duration converts the cost to a time.Duration, rounding to the nearest
// nanosecond.
func (c Cost) Duration() time.Duration {
	if c >= 0 {
		return time.Duration((c + 500) / 1e3)
	}
	return time.Duration((c - 500) / 1e3)
}

// Nanoseconds returns the cost as fractional nanoseconds.
func (c Cost) Nanoseconds() float64 { return float64(c) / 1e3 }

// Microseconds returns the cost as fractional microseconds.
func (c Cost) Microseconds() float64 { return float64(c) / 1e6 }

// Level identifies the virtualization level code runs at. The zero value is
// bare metal, which is the meaningful default.
type Level int

// Virtualization levels, using the Turtles project notation the paper
// follows: L0 is the bare-metal hypervisor's level, L1 a guest, L2 a guest
// of a guest.
const (
	L0 Level = iota
	L1
	L2
	// L3 is a guest of a nested guest — beyond the paper's evaluation, but
	// the level a deeper-nesting attacker strategy stacks to. Every L3 exit
	// reflects through *two* intermediate hypervisors, so the exit
	// multiplication compounds.
	L3
)

// Levels lists the three levels the paper evaluates, in order. Deeper
// levels (L3) exist in the model but are not part of the paper's sweep.
var Levels = []Level{L0, L1, L2}

// String returns the Turtles-style level name.
func (l Level) String() string {
	return "L" + strconv.Itoa(int(l))
}

// Class partitions operations by the mechanism that dominates their
// virtualization overhead.
type Class int

// Operation classes.
const (
	// ClassALU is pure user-mode compute: arithmetic, logic, FP. Never
	// exits.
	ClassALU Class = iota + 1
	// ClassSyscall is a kernel round trip: syscalls, faults, IPC. May
	// exit depending on the op's profile (IPIs, halts).
	ClassSyscall
	// ClassIO is device I/O: always exits to the device model.
	ClassIO
)

// String names the class.
func (c Class) String() string {
	switch c {
	case ClassALU:
		return "alu"
	case ClassSyscall:
		return "syscall"
	case ClassIO:
		return "io"
	default:
		return fmt.Sprintf("class(%d)", int(c))
	}
}

// ExitProfile counts the virtualization traps one execution of an operation
// generates.
type ExitProfile struct {
	// Exits is the number of VM exits per operation at any virtualized
	// level (L1 and L2): IPIs, HLTs, port I/O, privileged instructions.
	Exits int
	// NestedFaults is the number of additional shadow-EPT faults per
	// operation that occur only at L2, from guest page-table updates the
	// L0 hypervisor must intercept to maintain L1's emulated EPT.
	NestedFaults int
}

// Op is one modelled operation: a name, its native (L0) cost, the mechanism
// class, and its exit profile.
type Op struct {
	Name    string
	Base    Cost
	Class   Class
	Profile ExitProfile
}

// ALUOp builds a pure-compute operation.
func ALUOp(name string, base Cost) Op {
	return Op{Name: name, Base: base, Class: ClassALU}
}

// SyscallOp builds a kernel-path operation with the given exit profile.
func SyscallOp(name string, base Cost, exits, nestedFaults int) Op {
	return Op{
		Name:    name,
		Base:    base,
		Class:   ClassSyscall,
		Profile: ExitProfile{Exits: exits, NestedFaults: nestedFaults},
	}
}

// IOOp builds a device-I/O operation (always at least one exit when
// virtualized).
func IOOp(name string, base Cost, exits int) Op {
	if exits < 1 {
		exits = 1
	}
	return Op{
		Name:    name,
		Base:    base,
		Class:   ClassIO,
		Profile: ExitProfile{Exits: exits},
	}
}

// Model holds the calibrated cost parameters shared by all operations.
type Model struct {
	// ExitCost is one hardware VM exit handled by L0 (world switch +
	// handler).
	ExitCost Cost
	// ReflectCost is the extra cost of reflecting an L2 exit into the L1
	// hypervisor before L1 even starts handling it.
	ReflectCost Cost
	// ExitMultiplier is the number of real (L0-handled) exits the L1
	// hypervisor's handling of a single reflected exit generates — the
	// Turtles exit-multiplication factor.
	ExitMultiplier int
	// NestedFaultCost is one shadow-EPT maintenance fault at L2.
	NestedFaultCost Cost

	// ALUDriftL1/L2 are multiplicative slowdowns on compute from cache
	// and TLB interference introduced by each extra layer. Applied only
	// to ops whose base latency is at least ALUDriftFloor: sub-cycle ops
	// hide the drift below measurement resolution (paper Table II shows
	// int bit/add unchanged while div/mod/FP ops drift ~3-4% at L2).
	ALUDriftL1    float64
	ALUDriftL2    float64
	ALUDriftFloor Cost

	// SyscallPadL1/L2 model kernel-path cache/TLB pollution per layer as
	// a small *additive* cost per operation. The paper's Table III pins
	// this down: signal-handler installation grows 75ns -> 96ns -> 100ns
	// (a ~20ns pad) while fork+exit (74.6µs base) is unchanged at L1 —
	// a multiplicative drift would have added ~19µs there.
	SyscallPadL1 Cost
	SyscallPadL2 Cost
}

// DefaultModel returns parameters calibrated against the paper's testbed.
func DefaultModel() Model {
	return Model{
		ExitCost:        Nanos(1100),
		ReflectCost:     Nanos(500),
		ExitMultiplier:  18,
		NestedFaultCost: Nanos(2100),
		ALUDriftL1:      1.003,
		ALUDriftL2:      1.034,
		ALUDriftFloor:   Picoseconds(500),
		SyscallPadL1:    Nanos(20),
		SyscallPadL2:    Nanos(40),
	}
}

// Cost returns the virtual-time cost of one execution of op at the given
// level.
func (m Model) Cost(op Op, level Level) Cost {
	base := float64(op.Base)
	switch level {
	case L0:
		return op.Base
	case L1:
		drifted := Cost(base*m.aluDrift(op, m.ALUDriftL1)) + m.syscallPad(op, m.SyscallPadL1)
		exits := Cost(op.Profile.Exits) * m.ExitCost
		return drifted + exits
	default:
		// L2 and deeper: each exit reflects to the enclosing hypervisor
		// and multiplies; page-table work additionally faults. Every level
		// past L2 wraps the reflection again — the L_{n-1} hypervisor's
		// handling of one reflected exit is itself ExitMultiplier exits
		// *at its own level*, each paying the full cost below it — so the
		// per-exit cost compounds geometrically with depth.
		drifted := Cost(base*m.aluDrift(op, m.ALUDriftL2)) + m.syscallPad(op, m.SyscallPadL2)
		perExit := m.ReflectCost + Cost(m.ExitMultiplier)*m.ExitCost
		faultCost := m.NestedFaultCost
		for l := L2; l < level; l++ {
			perExit = m.ReflectCost + Cost(m.ExitMultiplier)*perExit
			faultCost = Cost(m.ExitMultiplier) * faultCost
		}
		exits := Cost(op.Profile.Exits) * perExit
		faults := Cost(op.Profile.NestedFaults) * faultCost
		return drifted + exits + faults
	}
}

func (m Model) aluDrift(op Op, drift float64) float64 {
	if op.Class != ClassALU || op.Base < m.ALUDriftFloor {
		return 1
	}
	return drift
}

func (m Model) syscallPad(op Op, pad Cost) Cost {
	if op.Class != ClassSyscall {
		return 0
	}
	return pad
}

// ExitsAt returns how many real, L0-handled VM exits one execution of op
// generates at the given level. Useful for ablation benches and traces.
//
//detlint:allow deadcode — test oracle: the model and vCPU telemetry tests derive expected exit counts from it
func (m Model) ExitsAt(op Op, level Level) int {
	switch level {
	case L0:
		return 0
	case L1:
		return op.Profile.Exits
	default:
		per := 1 + m.ExitMultiplier
		faults := op.Profile.NestedFaults
		for l := L2; l < level; l++ {
			per = 1 + m.ExitMultiplier*per
			faults *= m.ExitMultiplier
		}
		return op.Profile.Exits*per + faults
	}
}
