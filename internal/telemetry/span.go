package telemetry

import (
	"fmt"
	"strings"
	"time"

	"cloudskulk/internal/sim"
)

// Attr is one key=value span attribute. Values are strings; callers
// format numbers themselves so rendering is trivially stable.
type Attr struct {
	Key   string
	Value string
}

// A is shorthand for constructing an Attr.
func A(key, value string) Attr { return Attr{Key: key, Value: value} }

// Span is one timed operation in virtual time. Spans nest: a span started
// while another is open becomes its child, so a cross-host migration
// renders as a tree (migrate → stream → round-N → downtime) rather than
// a flat event list.
type Span struct {
	Name     string
	Start    time.Duration
	Stop     time.Duration
	Attrs    []Attr
	Children []*Span

	tracer *SpanTracer
	open   bool
}

// SpanTracer builds span trees against a sim.Engine clock. Like the
// engine itself it is single-threaded: create one per simulated world and
// never share it across runner workers. A nil tracer (and the nil spans
// it hands out) is a no-op, mirroring the nil-Registry fast path.
type SpanTracer struct {
	eng   *sim.Engine
	roots []*Span
	stack []*Span
}

// NewSpanTracer returns a tracer reading timestamps from eng.
func NewSpanTracer(eng *sim.Engine) *SpanTracer {
	return &SpanTracer{eng: eng}
}

// Start opens a span. If another span is open it becomes the parent.
// Nil-safe: a nil tracer returns a nil span whose methods are no-ops.
// A span started with attributes keeps room for one more, the outcome
// most such spans Set when they finish.
func (t *SpanTracer) Start(name string, attrs ...Attr) *Span {
	if t == nil {
		return nil
	}
	s := &Span{
		Name:   name,
		Start:  t.eng.Now(),
		tracer: t,
		open:   true,
	}
	if len(attrs) > 0 {
		s.Attrs = append(make([]Attr, 0, len(attrs)+1), attrs...)
	}
	if n := len(t.stack); n > 0 {
		parent := t.stack[n-1]
		parent.Children = append(parent.Children, s)
	} else {
		t.roots = append(t.roots, s)
	}
	t.stack = append(t.stack, s)
	return s
}

// Set adds (or appends another) attribute to the span. Nil-safe.
func (s *Span) Set(key, value string) {
	if s == nil {
		return
	}
	s.Attrs = append(s.Attrs, Attr{Key: key, Value: value})
}

// End closes the span at the current virtual time. Ending out of order
// closes every span opened after this one first (they share the end
// timestamp), so an early return inside a child operation cannot corrupt
// the stack. Ending twice, or ending a nil span, is a no-op.
func (s *Span) End() {
	if s == nil || !s.open {
		return
	}
	t := s.tracer
	now := t.eng.Now()
	for i := len(t.stack) - 1; i >= 0; i-- {
		top := t.stack[i]
		t.stack = t.stack[:i]
		top.open = false
		top.Stop = now
		if top == s {
			break
		}
	}
}

// Reset drops all recorded spans (open spans are abandoned). Nil-safe.
func (t *SpanTracer) Reset() {
	if t == nil {
		return
	}
	t.roots = nil
	t.stack = nil
}

// Tree renders all root spans as an indented tree:
//
//	migrate vm=guest0 dst=hostB                    [1.2s +3.4s]
//	  stream rounds=4                              [1.2s +3.1s]
//	    round idx=1 pages=25600                    [1.2s +1.0s]
//	    ...
//	  downtime                                     [4.4s +0.2s]
//
// Timestamps are virtual, so output is deterministic per seed.
func (t *SpanTracer) Tree() string {
	if t == nil {
		return ""
	}
	var b strings.Builder
	for _, s := range t.roots {
		writeSpan(&b, s, 0)
	}
	return b.String()
}

func writeSpan(b *strings.Builder, s *Span, depth int) {
	b.WriteString(strings.Repeat("  ", depth))
	b.WriteString(s.Name)
	for _, a := range s.Attrs {
		fmt.Fprintf(b, " %s=%s", a.Key, a.Value)
	}
	if s.open {
		fmt.Fprintf(b, "  [%s ..open)", s.Start)
	} else {
		fmt.Fprintf(b, "  [%s +%s]", s.Start, s.Stop-s.Start)
	}
	b.WriteByte('\n')
	for _, c := range s.Children {
		writeSpan(b, c, depth+1)
	}
}
