package cpu

import (
	"testing"
	"testing/quick"
	"time"

	"cloudskulk/internal/sim"
)

func TestCostConversions(t *testing.T) {
	if Nanos(0.13) != 130 {
		t.Fatalf("Nanos(0.13) = %d ps", Nanos(0.13))
	}
	if Micros(3.49) != 3_490_000 {
		t.Fatalf("Micros(3.49) = %d ps", Micros(3.49))
	}
	if DurationCost(time.Microsecond) != 1_000_000 {
		t.Fatalf("DurationCost(1us) = %d", DurationCost(time.Microsecond))
	}
	if got := Picoseconds(1499).Duration(); got != time.Nanosecond {
		t.Fatalf("1499ps rounds to %v, want 1ns", got)
	}
	if got := Picoseconds(1500).Duration(); got != 2*time.Nanosecond {
		t.Fatalf("1500ps rounds to %v, want 2ns", got)
	}
	if got := Picoseconds(-1500).Duration(); got != -2*time.Nanosecond {
		t.Fatalf("-1500ps rounds to %v, want -2ns", got)
	}
	if got := Nanos(5940).Nanoseconds(); got != 5940 {
		t.Fatalf("Nanoseconds = %v", got)
	}
	if got := Micros(65.49).Microseconds(); got < 65.4899 || got > 65.4901 {
		t.Fatalf("Microseconds = %v", got)
	}
}

func TestLevelString(t *testing.T) {
	tests := []struct {
		l    Level
		want string
	}{
		{L0, "L0"}, {L1, "L1"}, {L2, "L2"}, {Level(3), "L3"},
	}
	for _, tt := range tests {
		if got := tt.l.String(); got != tt.want {
			t.Fatalf("Level(%d).String() = %q, want %q", int(tt.l), got, tt.want)
		}
	}
}

func TestClassString(t *testing.T) {
	if ClassALU.String() != "alu" || ClassSyscall.String() != "syscall" ||
		ClassIO.String() != "io" {
		t.Fatal("class names wrong")
	}
	if Class(0).String() != "class(0)" {
		t.Fatalf("unknown class = %q", Class(0).String())
	}
}

func TestALUNativeAtAllLevelsBelowFloor(t *testing.T) {
	m := DefaultModel()
	op := ALUOp("int add", Nanos(0.13)) // below 500ps floor
	for _, l := range Levels {
		if got := m.Cost(op, l); got != op.Base {
			t.Fatalf("%v cost = %v, want native %v", l, got, op.Base)
		}
	}
}

func TestALUDriftAboveFloor(t *testing.T) {
	m := DefaultModel()
	op := ALUOp("int div", Nanos(5.94))
	l0 := m.Cost(op, L0)
	l1 := m.Cost(op, L1)
	l2 := m.Cost(op, L2)
	if l0 != op.Base {
		t.Fatalf("L0 = %v", l0)
	}
	// L1 drift ~0.3%, L2 drift ~3.4% — the Table II shape.
	r1 := float64(l1) / float64(l0)
	r2 := float64(l2) / float64(l0)
	if r1 < 1.0 || r1 > 1.01 {
		t.Fatalf("L1/L0 = %v, want ~1.003", r1)
	}
	if r2 < 1.02 || r2 > 1.05 {
		t.Fatalf("L2/L0 = %v, want ~1.034", r2)
	}
}

func TestExitMultiplicationShape(t *testing.T) {
	// An op with exits gets a modest L1 penalty and a multiplied L2
	// penalty — the pipe-latency shape from Table III.
	m := DefaultModel()
	pipe := SyscallOp("pipe", Micros(3.49), 3, 0)
	l0 := m.Cost(pipe, L0)
	l1 := m.Cost(pipe, L1)
	l2 := m.Cost(pipe, L2)
	if l1 <= l0 {
		t.Fatalf("L1 %v <= L0 %v", l1, l0)
	}
	// Paper: 3.49 -> 6.75 -> 65.49 µs. Check factors loosely.
	f1 := float64(l1) / float64(l0)
	f2 := float64(l2) / float64(l0)
	if f1 < 1.5 || f1 > 3 {
		t.Fatalf("L1/L0 = %.2f, want ~2", f1)
	}
	if f2 < 10 || f2 > 30 {
		t.Fatalf("L2/L0 = %.2f, want ~19", f2)
	}
}

func TestNestedFaultsOnlyCostAtL2(t *testing.T) {
	// fork: no exits, many nested faults. L1 ~= L0, L2 ~3x — Table III.
	m := DefaultModel()
	fork := SyscallOp("fork+exit", Micros(74.6), 0, 78)
	l0 := m.Cost(fork, L0)
	l1 := m.Cost(fork, L1)
	l2 := m.Cost(fork, L2)
	if f := float64(l1) / float64(l0); f > 1.3 {
		t.Fatalf("fork L1/L0 = %.2f, want near 1 (EPT handles it)", f)
	}
	if f := float64(l2) / float64(l0); f < 2.5 || f > 4.5 {
		t.Fatalf("fork L2/L0 = %.2f, want ~3.2", f)
	}
}

func TestIOOpAlwaysAtLeastOneExit(t *testing.T) {
	op := IOOp("out", Micros(1), 0)
	if op.Profile.Exits != 1 {
		t.Fatalf("IOOp clamped exits = %d, want 1", op.Profile.Exits)
	}
	m := DefaultModel()
	if m.Cost(op, L1) <= m.Cost(op, L0) {
		t.Fatal("virtualized IO not slower than native")
	}
}

func TestExitsAt(t *testing.T) {
	m := DefaultModel()
	op := SyscallOp("x", Micros(1), 2, 5)
	if got := m.ExitsAt(op, L0); got != 0 {
		t.Fatalf("L0 exits = %d", got)
	}
	if got := m.ExitsAt(op, L1); got != 2 {
		t.Fatalf("L1 exits = %d", got)
	}
	want := 2*(1+m.ExitMultiplier) + 5
	if got := m.ExitsAt(op, L2); got != want {
		t.Fatalf("L2 exits = %d, want %d", got, want)
	}
}

// Property: cost is monotonically non-decreasing in level for every op, and
// always at least the native cost.
func TestCostMonotoneInLevel(t *testing.T) {
	m := DefaultModel()
	f := func(baseUS uint16, exits, faults uint8) bool {
		op := SyscallOp("p", Micros(float64(baseUS)),
			int(exits%32), int(faults%128))
		l0 := m.Cost(op, L0)
		l1 := m.Cost(op, L1)
		l2 := m.Cost(op, L2)
		return l0 <= l1 && l1 <= l2 && l0 == op.Base
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestVCPUExecAdvancesClock(t *testing.T) {
	eng := sim.NewEngine(1)
	v := NewVCPU(eng, DefaultModel(), L1)
	op := SyscallOp("s", Micros(1), 1, 0)
	elapsed := v.Exec(op, 10)
	if elapsed <= 0 {
		t.Fatal("no time elapsed")
	}
	if eng.Now() != elapsed {
		t.Fatalf("clock %v != elapsed %v", eng.Now(), elapsed)
	}
	want := (v.CostOf(op) * 10).Duration()
	if elapsed != want {
		t.Fatalf("noise-free exec = %v, want %v", elapsed, want)
	}
	if v.Level() != L1 {
		t.Fatalf("level = %v", v.Level())
	}
	if v.Engine() != eng {
		t.Fatal("engine accessor mismatch")
	}
}

func TestVCPUExecZeroOrNegative(t *testing.T) {
	eng := sim.NewEngine(1)
	v := NewVCPU(eng, DefaultModel(), L0)
	if v.Exec(ALUOp("a", Nanos(1)), 0) != 0 {
		t.Fatal("Exec(0) advanced time")
	}
	if v.Exec(ALUOp("a", Nanos(1)), -5) != 0 {
		t.Fatal("Exec(-5) advanced time")
	}
	if eng.Now() != 0 {
		t.Fatal("clock moved")
	}
}

func TestVCPUNoiseIsDeterministicPerSeed(t *testing.T) {
	run := func(seed int64) time.Duration {
		eng := sim.NewEngine(seed)
		v := NewVCPU(eng, DefaultModel(), L2)
		v.Noise = 0.05
		op := SyscallOp("s", Micros(1), 2, 3)
		var total time.Duration
		for i := 0; i < 20; i++ {
			total += v.Exec(op, 100)
		}
		return total
	}
	if run(7) != run(7) {
		t.Fatal("same seed produced different noisy totals")
	}
	if run(7) == run(8) {
		t.Fatal("different seeds produced identical noisy totals")
	}
}

func TestMeasureMean(t *testing.T) {
	eng := sim.NewEngine(1)
	v := NewVCPU(eng, DefaultModel(), L0)
	op := ALUOp("add", Nanos(0.13))
	mean := v.MeasureMean(op, 10000)
	if got := mean.Nanoseconds(); got < 0.125 || got > 0.135 {
		t.Fatalf("mean = %vns, want ~0.13", got)
	}
	if v.MeasureMean(op, 0) != 0 {
		t.Fatal("MeasureMean(0) != 0")
	}
}
