// Package sim provides a deterministic discrete-event simulation kernel.
//
// Everything in the CloudSkulk reproduction — vCPU execution, KSM daemon
// scans, live-migration rounds, network transfers — runs on a single virtual
// clock owned by an Engine. Virtual time only advances when events fire, so
// experiments are fully deterministic for a given seed and are independent of
// wall-clock performance of the machine running the simulation.
package sim

import (
	"fmt"
	"time"
)

// compactMinCancelled is the floor below which lazily-cancelled events are
// never compacted out of the heap; past it, compaction triggers when more
// than half the queue is dead weight.
const compactMinCancelled = 64

// Engine is a discrete-event simulator: a virtual clock plus a priority
// queue of scheduled events. It is not safe for concurrent use; the entire
// simulation runs single-threaded, which is what makes it deterministic.
//
// Fired and cancelled events are recycled through a free list, so the
// steady-state Schedule/Step cycle allocates nothing.
type Engine struct {
	now        time.Duration
	queue      []*Event // min-heap ordered by (at, seq)
	free       []*Event // recycled events awaiting reuse
	ncancelled int      // cancelled events still sitting in queue
	rng        *Rand
	seq        uint64
	nsteps     uint64
	tracer     *Tracer
}

// NewEngine returns an engine whose clock starts at zero and whose random
// source is seeded with seed. Two engines built with the same seed replay
// identical event traces.
func NewEngine(seed int64) *Engine {
	return &Engine{
		rng: NewRand(seed),
	}
}

// Now returns the current virtual time (duration since simulation start).
func (e *Engine) Now() time.Duration {
	return e.now
}

// Steps returns the number of events fired so far. Useful for loop guards
// and for asserting deterministic replay in tests.
//
//detlint:hotpath
//detlint:allow deadcode — ROADMAP item 9 exports it as the events-fired counter
func (e *Engine) Steps() uint64 {
	return e.nsteps
}

// RNG returns the engine's seeded random source. All simulated randomness
// must come from here so experiments replay exactly.
func (e *Engine) RNG() *Rand {
	return e.rng
}

// Gauss draws from a normal distribution with the given mean and relative
// standard deviation (e.g. relStddev 0.05 means sigma = 5% of mean). The
// result is clamped to be non-negative, since all simulated quantities
// (latencies, throughputs) are non-negative.
func (e *Engine) Gauss(mean float64, relStddev float64) float64 {
	v := mean + e.rng.NormFloat64()*relStddev*mean
	if v < 0 {
		return 0
	}
	return v
}

// GaussDuration draws a non-negative duration around mean with the given
// relative standard deviation.
func (e *Engine) GaussDuration(mean time.Duration, relStddev float64) time.Duration {
	return time.Duration(e.Gauss(float64(mean), relStddev))
}

// Event is a scheduled callback, owned and recycled by the engine. Callers
// hold Handles, never bare *Events: the gen counter is what lets a Handle
// detect that its event already fired and the object now belongs to a
// different scheduling.
type Event struct {
	at        time.Duration
	seq       uint64
	gen       uint64
	name      string
	fn        func()
	cancelled bool
}

// Handle identifies one scheduling of an event. The zero Handle is valid
// and refers to nothing; cancelling it is a no-op. A Handle outlives the
// firing it refers to safely — once the event fires (or is cancelled and
// reaped) the generation moves on and the Handle goes inert.
type Handle struct {
	ev  *Event
	gen uint64
}

// Name returns the label the handle's event was scheduled with, or "" if
// the scheduling is no longer pending.
func (h Handle) Name() string {
	if h.ev == nil || h.ev.gen != h.gen {
		return ""
	}
	return h.ev.name
}

// alloc takes an event off the free list, or mints one if the pool is dry.
//
//detlint:hotpath
func (e *Engine) alloc() *Event {
	if n := len(e.free); n > 0 {
		ev := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		return ev
	}
	//detlint:allow hotpath — pool-dry mint path; amortized to zero once the free list warms up
	return &Event{}
}

// recycle retires an event to the free list. Bumping gen first severs every
// outstanding Handle; clearing fn/name drops references the pool must not
// pin.
//
//detlint:hotpath
func (e *Engine) recycle(ev *Event) {
	ev.gen++
	ev.fn = nil
	ev.name = ""
	ev.cancelled = false
	e.free = append(e.free, ev)
}

// Schedule enqueues fn to run after delay of virtual time. A negative delay
// is treated as zero (fire as soon as the event loop resumes). Events
// scheduled for the same instant fire in scheduling order.
//
//detlint:hotpath
func (e *Engine) Schedule(delay time.Duration, name string, fn func()) Handle {
	if delay < 0 {
		delay = 0
	}
	e.seq++
	ev := e.alloc()
	ev.at = e.now + delay
	ev.seq = e.seq
	ev.name = name
	ev.fn = fn
	e.push(ev)
	return Handle{ev: ev, gen: ev.gen}
}

// ScheduleAt enqueues fn at an absolute virtual time. Times in the past are
// clamped to now.
//
//detlint:hotpath
func (e *Engine) ScheduleAt(at time.Duration, name string, fn func()) Handle {
	return e.Schedule(at-e.now, name, fn)
}

// Cancel prevents a pending event from firing. The event stays in the heap
// and is reaped when it reaches the top (or at the next compaction), which
// keeps Cancel O(1). Cancelling an already-fired, already-cancelled, or
// zero Handle is a no-op.
//
//detlint:hotpath
func (e *Engine) Cancel(h Handle) {
	ev := h.ev
	if ev == nil || ev.gen != h.gen || ev.cancelled {
		return
	}
	ev.cancelled = true
	e.ncancelled++
	if e.ncancelled >= compactMinCancelled && e.ncancelled*2 > len(e.queue) {
		e.compact()
	}
}

// compact filters cancelled events out of the queue and re-heapifies.
// Heap order is re-derived from the total (at, seq) comparator, so pop
// order — and therefore the simulation — is unaffected.
//
//detlint:hotpath
func (e *Engine) compact() {
	live := e.queue[:0]
	for _, ev := range e.queue {
		if ev.cancelled {
			e.recycle(ev)
			continue
		}
		live = append(live, ev)
	}
	for i := len(live); i < len(e.queue); i++ {
		e.queue[i] = nil
	}
	e.queue = live
	e.ncancelled = 0
	for i := len(live)/2 - 1; i >= 0; i-- {
		e.siftDown(i)
	}
}

// Step fires the next pending event, advancing the clock to its timestamp.
// It reports whether an event fired (false means the queue was empty).
//
//detlint:hotpath
func (e *Engine) Step() bool {
	for len(e.queue) > 0 {
		ev := e.pop()
		if ev.cancelled {
			e.ncancelled--
			e.recycle(ev)
			continue
		}
		if ev.at > e.now {
			e.now = ev.at
		}
		e.nsteps++
		// Recycle before invoking: the callback may schedule again and is
		// handed this very object back under a fresh generation, while any
		// stale Handle to the firing just went inert.
		name, fn := ev.name, ev.fn
		e.recycle(ev)
		if e.tracer != nil {
			e.tracer.Record(e.now, name)
		}
		fn()
		return true
	}
	return false
}

// Run fires events until the queue is empty.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// RunUntil fires events with timestamps <= t, then sets the clock to t.
// Events scheduled beyond t remain queued.
func (e *Engine) RunUntil(t time.Duration) {
	for len(e.queue) > 0 {
		next := e.queue[0]
		if next.cancelled {
			e.pop()
			e.ncancelled--
			e.recycle(next)
			continue
		}
		if next.at > t {
			break
		}
		e.Step()
	}
	if t > e.now {
		e.now = t
	}
}

// RunBefore fires events with timestamps strictly < t, then sets the clock
// to t. It is the conservative-synchronization primitive: a shard granted
// the window [now, horizon) may fire everything before the horizon but must
// leave events at exactly the horizon queued, because a neighbouring shard
// is still allowed to inject traffic at that instant.
func (e *Engine) RunBefore(t time.Duration) {
	for len(e.queue) > 0 {
		next := e.queue[0]
		if next.cancelled {
			e.pop()
			e.ncancelled--
			e.recycle(next)
			continue
		}
		if next.at >= t {
			break
		}
		e.Step()
	}
	if t > e.now {
		e.now = t
	}
}

// NextEventAt returns the timestamp of the earliest pending (non-cancelled)
// event, reaping any cancelled events it skips over on the way. The second
// result is false when the queue is empty. Shard coordinators use it to
// compute the fleet-wide minimum next-event time each synchronization round.
func (e *Engine) NextEventAt() (time.Duration, bool) {
	for len(e.queue) > 0 {
		next := e.queue[0]
		if !next.cancelled {
			return next.at, true
		}
		e.pop()
		e.ncancelled--
		e.recycle(next)
	}
	return 0, false
}

// RunFor advances the simulation by d of virtual time.
func (e *Engine) RunFor(d time.Duration) {
	e.RunUntil(e.now + d)
}

// Advance moves the clock forward by d without firing events scheduled in
// between. It is the building block for "this operation took d" accounting
// in analytic (non-event) code paths; callers that interleave with event
// sources should prefer RunFor. Advance panics on negative d, which always
// indicates a programming error in a cost model.
func (e *Engine) Advance(d time.Duration) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative advance %v", d))
	}
	e.now += d
}

// Pending returns the number of events currently queued and not cancelled.
//
//detlint:allow deadcode — test oracle: the engine tests check queue depth across Cancel, compaction and RunUntil
func (e *Engine) Pending() int {
	return len(e.queue) - e.ncancelled
}

// less is the queue's strict total order: by firing time, ties broken by
// scheduling sequence, which is unique.
func less(a, b *Event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

//detlint:hotpath
func (e *Engine) push(ev *Event) {
	e.queue = append(e.queue, ev)
	e.siftUp(len(e.queue) - 1)
}

//detlint:hotpath
func (e *Engine) pop() *Event {
	q := e.queue
	ev := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q[n] = nil
	e.queue = q[:n]
	if n > 0 {
		e.siftDown(0)
	}
	return ev
}

//detlint:hotpath
func (e *Engine) siftUp(i int) {
	q := e.queue
	ev := q[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !less(ev, q[parent]) {
			break
		}
		q[i] = q[parent]
		i = parent
	}
	q[i] = ev
}

//detlint:hotpath
func (e *Engine) siftDown(i int) {
	q := e.queue
	n := len(q)
	ev := q[i]
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && less(q[r], q[l]) {
			m = r
		}
		if !less(q[m], ev) {
			break
		}
		q[i] = q[m]
		i = m
	}
	q[i] = ev
}
