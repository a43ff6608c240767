package telemetry

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"cloudskulk/internal/sim"
)

func TestKey(t *testing.T) {
	if got := Key("plain"); got != "plain" {
		t.Fatalf("Key plain = %q", got)
	}
	got := Key("cpu_exits_total", "class", "io", "level", "L2")
	want := `cpu_exits_total{class="io",level="L2"}`
	if got != want {
		t.Fatalf("Key = %q, want %q", got, want)
	}
}

// fmtKey is the fmt rendering Key must match: each label as %s=%q.
func fmtKey(name string, kv ...string) string {
	if len(kv) == 0 {
		return name
	}
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i := 0; i+1 < len(kv); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", kv[i], kv[i+1])
	}
	b.WriteByte('}')
	return b.String()
}

func FuzzTelemetryKey(f *testing.F) {
	f.Add("cpu_exits_total", "class", "io", "level", "L2")
	f.Add("m", "k", `say "hi"`, "path", `C:\dir\`)
	f.Add("bytes", "bad", "\xff\xfe\x00", "ctl", "tab\tnew\nline\u2028")
	f.Add("", "", "", "", "")
	f.Fuzz(func(t *testing.T, name, k1, v1, k2, v2 string) {
		for _, kv := range [][]string{nil, {k1, v1}, {k1, v1, k2, v2}, {k1, v1, k2}} {
			if got, want := Key(name, kv...), fmtKey(name, kv...); got != want {
				t.Fatalf("Key(%q, %q) = %q, want %q", name, kv, got, want)
			}
		}
	})
}

func TestCounterGaugeHistogram(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	if r.Counter("c") != c {
		t.Fatal("Counter did not return existing handle")
	}

	g := r.Gauge("g")
	g.Set(-7)
	if g.Value() != -7 {
		t.Fatalf("gauge = %d, want -7", g.Value())
	}

	h := r.Histogram("h", []int64{10, 100})
	for _, v := range []int64{5, 10, 11, 1000} {
		h.Observe(v)
	}
	if h.Count() != 4 || h.Sum() != 1026 {
		t.Fatalf("histogram count=%d sum=%d", h.Count(), h.Sum())
	}
	snap := r.Snapshot()
	var hs *MetricSnapshot
	for i := range snap {
		if snap[i].Name == "h" {
			hs = &snap[i]
		}
	}
	if hs == nil {
		t.Fatal("histogram missing from snapshot")
	}
	// Cumulative buckets: le=10 → 2 (5,10), le=100 → 3 (+11), +Inf → 4.
	wantCum := []uint64{2, 3, 4}
	for i, b := range hs.Buckets {
		if b.Count != wantCum[i] {
			t.Fatalf("bucket %d count=%d, want %d", i, b.Count, wantCum[i])
		}
	}
	if !hs.Buckets[2].Inf {
		t.Fatal("last bucket not marked +Inf")
	}
}

func TestNilRegistryIsNoOp(t *testing.T) {
	var r *Registry
	r.Counter("x").Inc()
	r.Counter("x").Add(10)
	r.Gauge("y").Set(3)
	r.Histogram("z", CountBuckets).Observe(1)
	if r.Counter("x").Value() != 0 || r.Gauge("y").Value() != 0 {
		t.Fatal("nil registry returned non-zero values")
	}
	if got := r.Snapshot(); got != nil {
		t.Fatalf("nil registry snapshot = %v, want nil", got)
	}
	if got := r.PromText(); got != "" {
		t.Fatalf("nil registry PromText = %q, want empty", got)
	}
	var buf bytes.Buffer
	if err := r.WriteJSONLines(&buf); err != nil || buf.Len() != 0 {
		t.Fatalf("nil registry WriteJSONLines = %v, %q", err, buf.String())
	}
}

func TestSnapshotSortedAndStable(t *testing.T) {
	build := func() *Registry {
		r := NewRegistry()
		r.Counter("zeta").Add(3)
		r.Counter("alpha").Add(1)
		r.Gauge("mid").Set(2)
		r.Histogram("hist", []int64{1, 2}).Observe(2)
		return r
	}
	a, b := build(), build()
	var ba, bb bytes.Buffer
	if err := a.WriteJSONLines(&ba); err != nil {
		t.Fatal(err)
	}
	if err := b.WriteJSONLines(&bb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ba.Bytes(), bb.Bytes()) {
		t.Fatalf("JSON-lines exports differ:\n%s\nvs\n%s", ba.String(), bb.String())
	}
	if a.PromText() != b.PromText() {
		t.Fatal("PromText exports differ for equal registries")
	}
	snap := a.Snapshot()
	for i := 1; i < len(snap); i++ {
		if snap[i-1].Name >= snap[i].Name {
			t.Fatalf("snapshot not strictly sorted: %q >= %q", snap[i-1].Name, snap[i].Name)
		}
	}
}

// Order-independence is what makes a shared registry safe for the
// parallel runner: any interleaving of the same increments must reach the
// same totals.
func TestConcurrentIncrementsDeterministic(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	h := r.Histogram("h", CountBuckets)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Add(2)
				h.Observe(int64(i % 7))
			}
		}()
	}
	wg.Wait()
	if c.Value() != 16000 {
		t.Fatalf("counter = %d, want 16000", c.Value())
	}
	if h.Count() != 8000 {
		t.Fatalf("histogram count = %d, want 8000", h.Count())
	}
}

func TestPromTextHistogramExpansion(t *testing.T) {
	r := NewRegistry()
	r.Histogram(Key("lat_us", "dev", "eth0"), []int64{10}).Observe(5)
	got := r.PromText()
	for _, want := range []string{
		"# TYPE lat_us histogram",
		`lat_us_bucket{dev="eth0",le="10"} 1`,
		`lat_us_bucket{dev="eth0",le="+Inf"} 1`,
		`lat_us_sum{dev="eth0"} 5`,
		`lat_us_count{dev="eth0"} 1`,
	} {
		if !strings.Contains(got, want) {
			t.Fatalf("PromText missing %q in:\n%s", want, got)
		}
	}
}

func TestSpanTreeNesting(t *testing.T) {
	eng := sim.NewEngine(1)
	st := NewSpanTracer(eng)

	mig := st.Start("migrate", A("vm", "guest0"))
	eng.Advance(1 * time.Second)
	stream := st.Start("stream")
	for i := 1; i <= 2; i++ {
		round := st.Start("round", A("idx", fmt.Sprint(i)))
		eng.Advance(500 * time.Millisecond)
		round.End()
	}
	stream.End()
	down := st.Start("downtime")
	eng.Advance(100 * time.Millisecond)
	down.End()
	mig.Set("outcome", "completed")
	mig.End()

	roots := st.roots
	if len(roots) != 1 {
		t.Fatalf("roots = %d, want 1", len(roots))
	}
	if len(roots[0].Children) != 2 {
		t.Fatalf("migrate children = %d, want 2 (stream, downtime)", len(roots[0].Children))
	}
	if n := len(roots[0].Children[0].Children); n != 2 {
		t.Fatalf("stream children = %d, want 2 rounds", n)
	}
	if d := roots[0].Stop - roots[0].Start; d != 2100*time.Millisecond {
		t.Fatalf("migrate duration = %v, want 2.1s", d)
	}
	tree := st.Tree()
	for _, want := range []string{"migrate vm=guest0 outcome=completed", "stream", "round idx=2", "downtime"} {
		if !strings.Contains(tree, want) {
			t.Fatalf("tree missing %q:\n%s", want, tree)
		}
	}
}

func TestSpanEndOutOfOrderClosesChildren(t *testing.T) {
	eng := sim.NewEngine(1)
	st := NewSpanTracer(eng)
	outer := st.Start("outer")
	inner := st.Start("inner")
	eng.Advance(time.Second)
	outer.End() // inner never explicitly ended
	if inner.open {
		t.Fatal("inner span left open after parent ended")
	}
	if inner.Stop != eng.Now() || outer.Stop-outer.Start != time.Second {
		t.Fatalf("timestamps wrong: inner.Stop=%v outer=%v", inner.Stop, outer.Stop-outer.Start)
	}
	// Double-end must be a no-op.
	eng.Advance(time.Second)
	inner.End()
	if inner.Stop == eng.Now() {
		t.Fatal("double End moved the stop timestamp")
	}
}

func TestNilSpanTracerIsNoOp(t *testing.T) {
	var st *SpanTracer
	s := st.Start("x", A("k", "v"))
	s.Set("k2", "v2")
	s.End()
	if s != nil || st.Tree() != "" {
		t.Fatal("nil span tracer not a no-op")
	}
	st.Reset()
}
