package sim

import (
	"strings"
	"testing"
	"time"
)

func TestTracerRecordsEventFirings(t *testing.T) {
	e := NewEngine(1)
	tr := NewTracer(0)
	e.Observe(tr)
	e.Schedule(time.Millisecond, "alpha", func() {})
	e.Schedule(2*time.Millisecond, "beta", func() {})
	e.Run()
	got := tr.Entries()
	if len(got) != 2 {
		t.Fatalf("entries = %d", len(got))
	}
	if got[0].Name != "alpha" || got[0].At != time.Millisecond {
		t.Fatalf("entry 0 = %+v", got[0])
	}
	if got[1].Name != "beta" {
		t.Fatalf("entry 1 = %+v", got[1])
	}
	out := tr.String()
	if !strings.Contains(out, "alpha") || !strings.Contains(out, "beta") {
		t.Fatalf("render:\n%s", out)
	}
	// Detach: further events unrecorded.
	e.Observe(nil)
	e.Schedule(time.Millisecond, "gamma", func() {})
	e.Run()
	if len(tr.Entries()) != 2 {
		t.Fatal("recorded after detach")
	}
}

func TestTracerRingEviction(t *testing.T) {
	e := NewEngine(1)
	tr := NewTracer(3)
	e.Observe(tr)
	for i := 0; i < 5; i++ {
		name := string(rune('a' + i))
		e.Schedule(time.Duration(i+1)*time.Millisecond, name, func() {})
	}
	e.Run()
	if len(tr.Entries()) != 3 {
		t.Fatalf("len = %d", len(tr.Entries()))
	}
	if tr.Dropped() != 2 {
		t.Fatalf("dropped = %d", tr.Dropped())
	}
	got := tr.Entries()
	if got[0].Name != "c" || got[2].Name != "e" {
		t.Fatalf("ring order = %+v", got)
	}
}

func TestTracerStringDroppedTrailer(t *testing.T) {
	tr := NewTracer(2)
	tr.Record(time.Millisecond, "a")
	tr.Record(2*time.Millisecond, "b")
	if out := tr.String(); strings.Contains(out, "dropped") {
		t.Fatalf("trailer shown with nothing dropped:\n%s", out)
	}
	tr.Record(3*time.Millisecond, "c")
	tr.Record(4*time.Millisecond, "d")
	out := tr.String()
	if !strings.HasSuffix(out, "(+2 dropped)\n") {
		t.Fatalf("missing dropped trailer:\n%s", out)
	}
}

func TestTracerCancelledEventsNotRecorded(t *testing.T) {
	e := NewEngine(1)
	tr := NewTracer(0)
	e.Observe(tr)
	ev := e.Schedule(time.Millisecond, "never", func() {})
	e.Cancel(ev)
	e.Run()
	if len(tr.Entries()) != 0 {
		t.Fatalf("entries = %v", tr.Entries())
	}
}
