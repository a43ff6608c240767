// Package telemetry is the observability layer of the simulation stack:
// a typed metrics registry (counters, gauges, fixed-bucket histograms),
// span-style structured tracing in virtual time, and deterministic
// exporters (JSON lines, Prometheus-style text, monitor snapshots).
//
// Determinism rules, which every instrumentation site must respect:
//
//   - Counters and histograms are pure sums of atomic increments, so a
//     registry shared by parallel sweep cells reaches the same totals for
//     any worker count or interleaving. All hot-path instrumentation goes
//     through them.
//   - Histograms observe integer units (microseconds, pages, rounds) —
//     never floats, whose addition order would leak scheduling into sums.
//   - Gauges are last-write-wins and therefore reserved for values that
//     are identical no matter which cell writes them (model constants
//     like the exit-reflection multiplier). Anything that varies per cell
//     belongs in a counter or histogram.
//   - Exports iterate metrics in sorted name order, so two registries
//     holding the same totals render byte-identically.
//
// The whole API is nil-receiver safe: a component instrumented with a nil
// *Registry (or nil *Counter, *Span, ...) pays a single branch per call.
// That is the uninstrumented fast path the cpu exit-dispatch benchmark
// bounds.
package telemetry

import (
	"sort"
	"strconv"
	//detlint:allow goroutine — registry creation lock only; all metric updates are commutative atomics, so totals are interleaving-invariant
	"sync"
	"sync/atomic"
)

// Registry holds named metrics. It is safe for concurrent use: metric
// creation takes a lock, while updates through the returned handles are
// lock-free atomics.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
}

// Key renders a metric name with label pairs in the given (fixed) order:
// Key("cpu_exits_total", "class", "io", "level", "L2") ==
// `cpu_exits_total{class="io",level="L2"}`. Call sites hard-code label
// order so the same series always renders the same key. Each value is
// quoted by strconv.AppendQuote, the same bytes as fmt's %q.
func Key(name string, kv ...string) string {
	if len(kv) == 0 {
		return name
	}
	var buf [128]byte
	b := append(buf[:0], name...)
	b = append(b, '{')
	for i := 0; i+1 < len(kv); i += 2 {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, kv[i]...)
		b = append(b, '=')
		b = strconv.AppendQuote(b, kv[i+1])
	}
	b = append(b, '}')
	return string(b)
}

// Counter is a monotonically increasing uint64.
type Counter struct{ n atomic.Uint64 }

// Add increments the counter by delta. Safe on a nil receiver.
func (c *Counter) Add(delta uint64) {
	if c == nil {
		return
	}
	c.n.Add(delta)
}

// Inc increments the counter by one. Safe on a nil receiver.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 for nil).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.n.Load()
}

// Gauge is a settable int64. See the package determinism rules: only
// write values that do not depend on scheduling.
type Gauge struct{ v atomic.Int64 }

// Set stores v. Safe on a nil receiver.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Value returns the stored value (0 for nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram counts integer observations into fixed buckets. Bounds are
// inclusive upper limits in ascending order; an implicit +Inf bucket
// catches the rest.
type Histogram struct {
	bounds []int64
	counts []atomic.Uint64 // len(bounds)+1, last is +Inf
	count  atomic.Uint64
	sum    atomic.Int64
}

// Observe records one value. Safe on a nil receiver.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	i := sort.Search(len(h.bounds), func(i int) bool { return v <= h.bounds[i] })
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Count returns the total number of observations (0 for nil).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed values (0 for nil).
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Counter returns (creating if needed) the counter named name. A nil
// registry returns a nil handle, whose methods are no-ops.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns (creating if needed) the gauge named name. Nil-safe.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns (creating if needed) the histogram named name with
// the given bucket bounds. The bounds of the first creation win; later
// calls with different bounds get the existing histogram. Nil-safe.
func (r *Registry) Histogram(name string, bounds []int64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		b := append([]int64(nil), bounds...)
		sort.Slice(b, func(i, j int) bool { return b[i] < b[j] })
		h = &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
		r.histograms[name] = h
	}
	return h
}

// DurationBuckets is the shared microsecond bucket layout for virtual-time
// histograms: 100 µs up to 10 min, roughly one bucket per decade half.
var DurationBuckets = []int64{
	100, 1_000, 10_000, 50_000, 100_000, 500_000,
	1_000_000, 5_000_000, 30_000_000, 60_000_000, 600_000_000,
}

// CountBuckets is the shared layout for small-count histograms (migration
// rounds, retries).
var CountBuckets = []int64{1, 2, 3, 5, 10, 20, 50, 100, 500}

// PageBuckets is the shared layout for page-count histograms.
var PageBuckets = []int64{256, 1_024, 4_096, 16_384, 65_536, 262_144, 1_048_576}

// BucketSnapshot is one histogram bucket in a snapshot: its inclusive
// upper bound (Inf true for the overflow bucket) and cumulative count.
type BucketSnapshot struct {
	UpperBound int64  `json:"le"`
	Inf        bool   `json:"inf,omitempty"`
	Count      uint64 `json:"count"`
}

// MetricSnapshot is one metric's frozen state, the unit all exporters and
// the monitor's info stats consume.
type MetricSnapshot struct {
	Name string `json:"name"`
	Type string `json:"type"` // "counter", "gauge", "histogram"
	// Value carries counter and gauge values (counters as int64: the
	// simulation never overflows 63 bits of events).
	Value int64 `json:"value,omitempty"`
	// Histogram-only fields.
	Count   uint64           `json:"count,omitempty"`
	Sum     int64            `json:"sum,omitempty"`
	Buckets []BucketSnapshot `json:"buckets,omitempty"`
}

// Snapshot freezes every metric, sorted by name. A nil registry snapshots
// to nil.
func (r *Registry) Snapshot() []MetricSnapshot {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]MetricSnapshot, 0, len(r.counters)+len(r.gauges)+len(r.histograms))
	for name, c := range r.counters {
		out = append(out, MetricSnapshot{Name: name, Type: "counter", Value: int64(c.Value())})
	}
	for name, g := range r.gauges {
		out = append(out, MetricSnapshot{Name: name, Type: "gauge", Value: g.Value()})
	}
	for name, h := range r.histograms {
		snap := MetricSnapshot{Name: name, Type: "histogram", Count: h.Count(), Sum: h.Sum()}
		cum := uint64(0)
		for i := range h.counts {
			cum += h.counts[i].Load()
			b := BucketSnapshot{Count: cum}
			if i < len(h.bounds) {
				b.UpperBound = h.bounds[i]
			} else {
				b.Inf = true
			}
			snap.Buckets = append(snap.Buckets, b)
		}
		out = append(out, snap)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
