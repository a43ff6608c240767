package cpu

import (
	"testing"
	"time"

	"cloudskulk/internal/sim"
	"cloudskulk/internal/telemetry"
)

func TestVCPUTelemetryCountsOpsAndExits(t *testing.T) {
	eng := sim.NewEngine(1)
	v := NewVCPU(eng, DefaultModel(), L2)
	reg := telemetry.NewRegistry()
	v.SetTelemetry(reg)

	io := IOOp("out", Micros(1), 2)
	v.Exec(io, 10)
	alu := ALUOp("add", Nanos(1))
	v.Exec(alu, 5)

	ops := reg.Counter(telemetry.Key("cpu_ops_total", "class", "io", "level", "L2"))
	if ops.Value() != 10 {
		t.Fatalf("io ops = %d, want 10", ops.Value())
	}
	// At L2 each of the 2 exits reflects into 1+ExitMultiplier real exits.
	wantExits := uint64(10 * DefaultModel().ExitsAt(io, L2))
	exits := reg.Counter(telemetry.Key("cpu_exits_total", "class", "io", "level", "L2"))
	if exits.Value() != wantExits {
		t.Fatalf("io exits = %d, want %d", exits.Value(), wantExits)
	}
	aluExits := reg.Counter(telemetry.Key("cpu_exits_total", "class", "alu", "level", "L2"))
	if aluExits.Value() != 0 {
		t.Fatalf("alu exits = %d, want 0", aluExits.Value())
	}
}

func TestVCPUTelemetryNilFastPath(t *testing.T) {
	eng := sim.NewEngine(1)
	v := NewVCPU(eng, DefaultModel(), L1)
	// Never attached: Exec must behave identically to the bare vCPU.
	ref := NewVCPU(sim.NewEngine(1), DefaultModel(), L1)
	op := SyscallOp("pipe", Micros(3.49), 3, 0)
	if got, want := v.Exec(op, 100), ref.Exec(op, 100); got != want {
		t.Fatalf("nil-telemetry Exec changed timing: %v vs %v", got, want)
	}
	// Attach then detach: detached vCPU counts nothing further.
	reg := telemetry.NewRegistry()
	v.SetTelemetry(reg)
	v.Exec(op, 1)
	v.SetTelemetry(nil)
	v.Exec(op, 9)
	c := reg.Counter(telemetry.Key("cpu_ops_total", "class", "syscall", "level", "L1"))
	if c.Value() != 1 {
		t.Fatalf("ops after detach = %d, want 1", c.Value())
	}
}

// Acceptance bound: instrumented exit dispatch must stay within ~10% of
// the uninstrumented path. Compare with:
//
//	go test -run='^$' -bench=BenchmarkExec ./internal/cpu/
func benchmarkExec(b *testing.B, reg *telemetry.Registry, attach bool) {
	eng := sim.NewEngine(1)
	v := NewVCPU(eng, DefaultModel(), L2)
	if attach {
		v.SetTelemetry(reg)
	}
	op := IOOp("out", Micros(1), 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v.Exec(op, 1)
	}
	if eng.Now() < time.Duration(b.N) { // keep the work observable
		b.Fatal("no virtual time consumed")
	}
}

func BenchmarkExecUninstrumented(b *testing.B) { benchmarkExec(b, nil, false) }

// The nil-registry fast path: SetTelemetry(nil) leaves only the nil
// check on the hot path; this must stay within ~10% of uninstrumented.
func BenchmarkExecNilRegistry(b *testing.B) { benchmarkExec(b, nil, true) }

func BenchmarkExecInstrumented(b *testing.B) {
	benchmarkExec(b, telemetry.NewRegistry(), true)
}
