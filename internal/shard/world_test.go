package shard

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// pingWorld builds an n-shard world where every shard runs a local ticker
// and a cross-shard ping ring, recording a trace of everything it sees.
// The trace is the determinism artefact the tests compare.
func pingWorld(t *testing.T, n, workers int, seed int64) (*World, []*strings.Builder) {
	t.Helper()
	la := 2 * time.Millisecond
	w, err := NewWorld(n, seed, Options{Lookahead: la, Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	traces := make([]*strings.Builder, n)
	for i := 0; i < n; i++ {
		i := i
		s := w.Shard(i)
		tb := &strings.Builder{}
		traces[i] = tb
		s.OnDeliver(func(m Message) {
			fmt.Fprintf(tb, "recv %s from=%d at=%v data=%v\n", m.Kind, m.From, s.Engine().Now(), m.Data)
			// Bounce the ping onward with a jittered (but deterministic)
			// legal delay.
			hops := m.Data.(int)
			if hops > 0 {
				d := la + time.Duration(s.Engine().RNG().Intn(5))*time.Millisecond
				s.Send((i+1)%n, d, "ping", hops-1)
			}
		})
		// A local ticker: every shard has dense local work between syncs.
		var tick func()
		tick = func() {
			fmt.Fprintf(tb, "tick at=%v\n", s.Engine().Now())
			if s.Engine().Now() < 80*time.Millisecond {
				s.Engine().Schedule(time.Duration(1+s.Engine().RNG().Intn(3))*time.Millisecond, "tick", tick)
			}
		}
		s.Engine().Schedule(time.Duration(i)*time.Millisecond, "tick", tick)
		// Seed the ring.
		s.Engine().Schedule(3*time.Millisecond, "kick", func() {
			s.Send((i+1)%n, la, "ping", 6)
		})
	}
	return w, traces
}

func runPing(t *testing.T, workers int, seed int64) (string, *World) {
	t.Helper()
	w, traces := pingWorld(t, 4, workers, seed)
	if err := w.RunUntil(100 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	var all strings.Builder
	for i, tb := range traces {
		fmt.Fprintf(&all, "== shard %d ==\n%s", i, tb.String())
	}
	return all.String(), w
}

// TestWorldWorkerInvariance: the full event trace of every shard is
// byte-identical whether shards advance serially or on 8 workers, and
// across repeated runs.
func TestWorldWorkerInvariance(t *testing.T) {
	base, w1 := runPing(t, 1, 11)
	if w1.Delivered() == 0 {
		t.Fatal("ping ring exchanged no messages — test is vacuous")
	}
	for _, workers := range []int{2, 8} {
		got, wN := runPing(t, workers, 11)
		if got != base {
			t.Fatalf("workers=%d trace differs from serial trace", workers)
		}
		if wN.Delivered() != w1.Delivered() || wN.Rounds() != w1.Rounds() {
			t.Fatalf("workers=%d counters (%d,%d) != serial (%d,%d)",
				workers, wN.Delivered(), wN.Rounds(), w1.Delivered(), w1.Rounds())
		}
	}
	again, _ := runPing(t, 1, 11)
	if again != base {
		t.Fatal("same seed replays a different trace")
	}
	other, _ := runPing(t, 1, 13)
	if other == base {
		t.Fatal("different seeds replay the same trace")
	}
}

// TestWorldClocksLandExactly: after RunUntil(t) every shard reads exactly
// t, and a second RunUntil continues the same simulation.
func TestWorldClocksLandExactly(t *testing.T) {
	w, _ := pingWorld(t, 3, 1, 5)
	if err := w.RunUntil(40 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(w.shards); i++ {
		if now := w.Shard(i).Engine().Now(); now != 40*time.Millisecond {
			t.Fatalf("shard %d clock %v, want 40ms", i, now)
		}
	}
	before := w.Rounds()
	if err := w.RunUntil(100 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if w.Rounds() == before {
		t.Fatal("continuation ran no further rounds")
	}
	for i := 0; i < len(w.shards); i++ {
		if now := w.Shard(i).Engine().Now(); now != 100*time.Millisecond {
			t.Fatalf("shard %d clock %v, want 100ms", i, now)
		}
	}
}

// TestWorldSplitRunMatchesOneShot: RunUntil(T) in two halves produces the
// same end state as one call — horizons never leak effects across t.
func TestWorldSplitRunMatchesOneShot(t *testing.T) {
	one, wOne := runPing(t, 1, 7)
	w, traces := pingWorld(t, 4, 1, 7)
	if err := w.RunUntil(53 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if err := w.RunUntil(100 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	var all strings.Builder
	for i, tb := range traces {
		fmt.Fprintf(&all, "== shard %d ==\n%s", i, tb.String())
	}
	if all.String() != one {
		t.Fatal("split run diverged from one-shot run")
	}
	if w.Delivered() != wOne.Delivered() {
		t.Fatalf("split run delivered %d, one-shot %d", w.Delivered(), wOne.Delivered())
	}
}

// TestSendEnforcesLookahead: a cross-shard send faster than the lookahead
// is a synchronization bug and must panic, as must a send to a bogus shard.
func TestSendEnforcesLookahead(t *testing.T) {
	w, err := NewWorld(2, 1, Options{Lookahead: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	expectPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		fn()
	}
	s := w.Shard(0)
	expectPanic("short delay", func() { s.Send(1, time.Microsecond, "x", nil) })
	expectPanic("self send", func() { s.Send(0, time.Millisecond, "x", nil) })
	expectPanic("bad target", func() { s.Send(9, time.Millisecond, "x", nil) })
}

func TestNewWorldValidation(t *testing.T) {
	if _, err := NewWorld(0, 1, Options{Lookahead: time.Millisecond}); err == nil {
		t.Fatal("zero shards accepted")
	}
	if _, err := NewWorld(2, 1, Options{}); err == nil {
		t.Fatal("zero lookahead accepted")
	}
}

// TestSteadyShardStepZeroAlloc pins the satellite claim: a synchronization
// round with local-only work (the overwhelmingly common case) allocates
// nothing on the serial path — peek, advance, and the empty exchange are
// all allocation-free.
func TestSteadyShardStepZeroAlloc(t *testing.T) {
	w, err := NewWorld(4, 3, Options{Lookahead: time.Millisecond, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Self-rescheduling tickers keep every shard's queue non-empty forever.
	for i := 0; i < len(w.shards); i++ {
		s := w.Shard(i)
		var tick func()
		tick = func() { s.Engine().Schedule(time.Millisecond, "tick", tick) }
		s.Engine().Schedule(time.Millisecond, "tick", tick)
	}
	// Warm up the engines' event pools and the world's exchange buffer.
	if err := w.RunUntil(50 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	next := 50 * time.Millisecond
	allocs := testing.AllocsPerRun(200, func() {
		next += 5 * time.Millisecond
		if err := w.RunUntil(next); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady shard round allocates %v objects/op, want 0", allocs)
	}
}
