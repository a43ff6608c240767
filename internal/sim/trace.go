package sim

import (
	"fmt"
	"strings"
	"time"
)

// TraceEntry is one recorded event firing.
type TraceEntry struct {
	At   time.Duration
	Name string
}

// Tracer records event firings into a bounded ring, for debugging
// simulations and for the CLIs' verbose modes. A zero capacity means
// unbounded.
type Tracer struct {
	cap     int
	entries []TraceEntry
	start   int
	dropped uint64
}

// NewTracer returns a tracer keeping at most capacity entries
// (capacity <= 0 means unbounded).
//
//detlint:allow deadcode — ROADMAP item 8's divergence tool arms the ring around the first differing window
func NewTracer(capacity int) *Tracer {
	return &Tracer{cap: capacity}
}

// Record appends an entry, evicting the oldest when at capacity.
func (t *Tracer) Record(at time.Duration, name string) {
	if t.cap > 0 && len(t.entries) == t.cap {
		t.entries[t.start] = TraceEntry{At: at, Name: name}
		t.start = (t.start + 1) % t.cap
		t.dropped++
		return
	}
	t.entries = append(t.entries, TraceEntry{At: at, Name: name})
}

// Entries returns the recorded entries, oldest first.
func (t *Tracer) Entries() []TraceEntry {
	out := make([]TraceEntry, 0, len(t.entries))
	out = append(out, t.entries[t.start:]...)
	out = append(out, t.entries[:t.start]...)
	return out
}

// Dropped returns how many entries were evicted.
//
//detlint:allow deadcode — ROADMAP item 8's divergence tool reports a truncated window with it
func (t *Tracer) Dropped() uint64 { return t.dropped }

// String renders the trace, one event per line. When the ring has
// evicted entries, a "(+N dropped)" trailer makes the truncation visible.
func (t *Tracer) String() string {
	var b strings.Builder
	for _, e := range t.Entries() {
		fmt.Fprintf(&b, "%12s  %s\n", e.At, e.Name)
	}
	if t.dropped > 0 {
		fmt.Fprintf(&b, "(+%d dropped)\n", t.dropped)
	}
	return b.String()
}

// Observe attaches the tracer to the engine: every fired event is
// recorded. Passing nil detaches.
//
//detlint:allow deadcode — ROADMAP item 8's divergence tool attaches its tracer through it
func (e *Engine) Observe(t *Tracer) {
	e.tracer = t
}
