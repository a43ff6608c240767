package sim

import (
	"testing"
	"time"
)

// TestScheduleStepZeroAlloc pins the tentpole property: once the event pool
// and heap backing array are warm, a Schedule+Step cycle allocates nothing.
func TestScheduleStepZeroAlloc(t *testing.T) {
	e := NewEngine(1)
	fn := func() {}
	for i := 0; i < 64; i++ {
		e.Schedule(time.Duration(i)*time.Microsecond, "warm", fn)
	}
	e.Run()
	allocs := testing.AllocsPerRun(1000, func() {
		e.Schedule(time.Microsecond, "tick", fn)
		if !e.Step() {
			t.Fatal("queue unexpectedly empty")
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state Schedule+Step allocates %v objects/op, want 0", allocs)
	}
}

// TestTickerSteadyStateZeroAlloc: a running ticker re-arms by re-enqueueing
// one pre-bound closure, so each period is allocation-free.
func TestTickerSteadyStateZeroAlloc(t *testing.T) {
	e := NewEngine(1)
	ticks := 0
	tk := NewTicker(e, time.Millisecond, "tick", func() { ticks++ })
	e.Step() // first firing warms the pool
	allocs := testing.AllocsPerRun(1000, func() {
		if !e.Step() {
			t.Fatal("ticker queue unexpectedly empty")
		}
	})
	tk.Stop()
	if allocs != 0 {
		t.Fatalf("ticker period allocates %v objects/op, want 0", allocs)
	}
	if ticks < 1000 {
		t.Fatalf("ticks = %d, want >= 1000", ticks)
	}
}

// TestStaleHandleDoesNotCancelReusedEvent: after an event fires, its pooled
// object may immediately back a new scheduling; the old Handle's generation
// no longer matches, so cancelling it must not touch the newcomer.
func TestStaleHandleDoesNotCancelReusedEvent(t *testing.T) {
	e := NewEngine(1)
	stale := e.Schedule(time.Millisecond, "first", func() {})
	e.Step()
	fired := false
	fresh := e.Schedule(time.Millisecond, "second", func() { fired = true })
	if fresh.ev != stale.ev {
		t.Fatalf("pool did not reuse the event object; test premise broken")
	}
	e.Cancel(stale)
	if e.Pending() != 1 {
		t.Fatalf("Pending = %d after stale cancel, want 1", e.Pending())
	}
	e.Step()
	if !fired {
		t.Fatal("stale handle cancelled a reused event")
	}
}

// TestStaleHandleGoesInert: Name/At read through the generation check.
func TestStaleHandleGoesInert(t *testing.T) {
	e := NewEngine(1)
	h := e.Schedule(2*time.Millisecond, "probe", func() {})
	if h.Name() != "probe" {
		t.Fatalf("live handle name = %q, want probe", h.Name())
	}
	e.Step()
	if h.Name() != "" {
		t.Fatalf("fired handle name = %q, want inert empty name", h.Name())
	}
}

// TestMassCancelCompactionKeepsOrder: cancelling most of a large queue trips
// the lazy compaction; survivors must still fire in exact (at, seq) order
// and Pending must account for the dead weight either way.
func TestMassCancelCompactionKeepsOrder(t *testing.T) {
	e := NewEngine(1)
	var order []int
	handles := make([]Handle, 300)
	for i := 0; i < 300; i++ {
		i := i
		handles[i] = e.Schedule(time.Duration(i)*time.Millisecond, "n", func() {
			order = append(order, i)
		})
	}
	for i := 0; i < 300; i++ {
		if i%3 != 0 {
			e.Cancel(handles[i])
		}
	}
	if got := e.Pending(); got != 100 {
		t.Fatalf("Pending = %d after mass cancel, want 100", got)
	}
	e.Run()
	if len(order) != 100 {
		t.Fatalf("fired %d events, want 100", len(order))
	}
	for idx, v := range order {
		if v != idx*3 {
			t.Fatalf("order[%d] = %d, want %d", idx, v, idx*3)
		}
	}
}

// TestCancelDuringOwnFiring: a callback cancelling its own handle (the
// ticker Stop-from-callback shape) is a harmless no-op — the generation
// already moved on by the time the callback runs.
func TestCancelDuringOwnFiring(t *testing.T) {
	e := NewEngine(1)
	var self Handle
	ran := false
	self = e.Schedule(time.Millisecond, "self", func() {
		ran = true
		e.Cancel(self)
	})
	e.Step()
	if !ran {
		t.Fatal("event did not fire")
	}
	later := false
	e.Schedule(time.Millisecond, "later", func() { later = true })
	e.Run()
	if !later {
		t.Fatal("self-cancel poisoned the pooled event for its next user")
	}
}

// BenchmarkScheduleStep is the event loop's steady state: one Schedule and
// one Step against a warm pool and a 64-event queue.
func BenchmarkScheduleStep(b *testing.B) {
	e := NewEngine(1)
	fn := func() {}
	for i := 0; i < 64; i++ {
		e.Schedule(time.Duration(i)*time.Microsecond, "warm", fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Schedule(64*time.Microsecond, "tick", fn)
		e.Step()
	}
}
