// Package shard partitions a simulated fleet into independent per-shard
// sim.Engine instances joined by deterministic conservative event exchange
// — the substrate that scales the CloudSkulk testbed from one engine's
// worth of hosts to a thousand-host, hundred-thousand-guest cloud.
//
// The synchronization contract (DESIGN.md §16):
//
//   - Lookahead rule. Every cross-shard interaction (a migration stream, a
//     forwarded control-plane job) takes at least the inter-shard link
//     latency to arrive, so a shard at virtual time T cannot be affected
//     by any other shard before T + lookahead. Each round the world finds
//     the minimum next-event time t_min across all shards and grants every
//     shard the window [now, t_min+lookahead): shards advance through it
//     independently — in parallel, on separate engines — without ever
//     seeing an effect out of order. Send enforces the rule: a cross-shard
//     message with delay < lookahead panics rather than desynchronize.
//
//   - Canonical exchange order. Messages generated during a round are
//     collected per source shard, concatenated in shard-ID order, and
//     sorted by (At, From, Seq) — a total order none of which depends on
//     worker scheduling — before delivery. Artefacts are therefore
//     byte-identical at any worker count, which the megastorm golden
//     matrix (workers 1 vs 8 × seeds 1/7) pins.
//
//   - Horizon exclusivity. A shard granted the window up to horizon H
//     fires only events strictly before H (sim.Engine.RunBefore): an event
//     at exactly H might race a message arriving at H, so it waits for the
//     next round, after that message has been exchanged.
package shard

import (
	"fmt"
	"time"

	"cloudskulk/internal/runner"
	"cloudskulk/internal/sim"
)

// Message is one cross-shard interaction, delivered to the destination
// shard's handler at virtual time At on the destination's own engine.
type Message struct {
	// At is the virtual delivery time; Send computes it as the sender's
	// now plus the transfer delay.
	At time.Duration
	// From and To are shard IDs.
	From, To int
	// Seq is the per-source-shard send counter; (At, From, Seq) is the
	// canonical total order messages are exchanged in.
	Seq uint64
	// Kind labels the interaction for handlers and traces.
	Kind string
	// Data is the payload, owned by the receiver once delivered.
	Data any
}

// Shard is one partition: a private engine plus the world's exchange port.
// All simulation state of the partition (its fleet, control plane, guests)
// must be driven solely by this shard's engine — that is what makes the
// parallel advance race-free.
type Shard struct {
	id      int
	eng     *sim.Engine
	w       *World
	outbox  []Message
	deliver func(Message)
	sent    uint64
}

// ID returns the shard's index in the world.
func (s *Shard) ID() int { return s.id }

// Engine returns the shard's private simulation engine.
func (s *Shard) Engine() *sim.Engine { return s.eng }

// OnDeliver installs the handler invoked (at the message's At, on this
// shard's engine) for each message addressed to this shard.
func (s *Shard) OnDeliver(fn func(Message)) { s.deliver = fn }

// Send queues a message to another shard, arriving delay after the
// sender's current virtual time. The delay must be at least the world's
// lookahead — the conservative-synchronization contract; a shorter delay
// is a modelling bug (an interaction faster than the inter-shard link)
// and panics. Sending to the own shard is equally a bug: local effects
// belong on the local engine.
//
//detlint:hotpath
func (s *Shard) Send(to int, delay time.Duration, kind string, data any) {
	if delay < s.w.lookahead {
		panic(fmt.Sprintf("shard %d: send %q delay %v violates lookahead %v",
			s.id, kind, delay, s.w.lookahead))
	}
	if to == s.id || to < 0 || to >= len(s.w.shards) {
		panic(fmt.Sprintf("shard %d: send %q to invalid shard %d", s.id, kind, to))
	}
	s.sent++
	s.outbox = append(s.outbox, Message{
		At:   s.eng.Now() + delay,
		From: s.id,
		To:   to,
		Seq:  s.sent,
		Kind: kind,
		Data: data,
	})
}

// World is a set of shards advancing under conservative synchronization.
type World struct {
	shards    []*Shard
	lookahead time.Duration
	workers   int

	exchange  []Message // reusable canonical-sort buffer
	rounds    uint64
	delivered uint64
}

// Options tunes a world.
type Options struct {
	// Lookahead is the guaranteed minimum cross-shard interaction delay —
	// in a gridded fleet, the inter-shard link latency. Must be > 0.
	Lookahead time.Duration
	// Workers bounds the parallel advance pool; <= 1 runs shards
	// serially on the calling goroutine (the allocation-free path).
	// The artefact is byte-identical either way.
	Workers int
}

// NewWorld builds n shards. Each shard's engine is seeded deterministically
// from (seed, shard ID), so a world is a pure function of its seed at any
// worker count.
func NewWorld(n int, seed int64, opts Options) (*World, error) {
	if n <= 0 {
		return nil, fmt.Errorf("shard: world needs at least one shard, got %d", n)
	}
	if opts.Lookahead <= 0 {
		return nil, fmt.Errorf("shard: lookahead must be positive, got %v", opts.Lookahead)
	}
	w := &World{
		lookahead: opts.Lookahead,
		workers:   opts.Workers,
		shards:    make([]*Shard, n),
	}
	for i := range w.shards {
		w.shards[i] = &Shard{
			id:  i,
			eng: sim.NewEngine(runner.CellSeed(seed, i)),
			w:   w,
		}
	}
	return w, nil
}

// Shard returns shard i.
func (w *World) Shard(i int) *Shard { return w.shards[i] }

// Rounds returns how many synchronization rounds have run.
func (w *World) Rounds() uint64 { return w.rounds }

// Delivered returns how many cross-shard messages have been exchanged.
func (w *World) Delivered() uint64 { return w.delivered }

// RunUntil advances every shard to virtual time t, firing all events with
// timestamps <= t in conservative rounds. On return every shard's clock
// reads exactly t and all cross-shard messages generated on the way —
// including those arriving beyond t — have been scheduled on their
// destination engines.
func (w *World) RunUntil(t time.Duration) error {
	for {
		tmin, any := w.minNextEvent()
		if !any || tmin > t {
			// Nothing left at or before t anywhere: park all clocks at t.
			for _, s := range w.shards {
				s.eng.RunUntil(t)
			}
			return nil
		}
		horizon := tmin + w.lookahead
		if err := w.advance(horizon, t); err != nil {
			return err
		}
		w.exchangeRound()
		w.rounds++
	}
}

// minNextEvent finds the earliest pending event time across all shards.
func (w *World) minNextEvent() (time.Duration, bool) {
	var tmin time.Duration
	any := false
	for _, s := range w.shards {
		if at, ok := s.eng.NextEventAt(); ok && (!any || at < tmin) {
			tmin, any = at, true
		}
	}
	return tmin, any
}

// advance runs every shard through the granted window. With Workers > 1
// the shards advance on the runner pool — safe because each shard's state
// is driven only by its own engine and outboxes are per-shard; the serial
// path is a plain loop, allocation-free in the steady state.
func (w *World) advance(horizon, t time.Duration) error {
	if w.workers <= 1 {
		for _, s := range w.shards {
			stepShard(s, horizon, t)
		}
		return nil
	}
	_, err := runner.Map(len(w.shards), runner.Options{Workers: w.workers},
		func(i int) (struct{}, error) {
			stepShard(w.shards[i], horizon, t)
			return struct{}{}, nil
		})
	return err
}

// stepShard advances one shard through the window: strictly below the
// horizon, except that a horizon beyond the run target t degenerates to
// the inclusive RunUntil(t) — every event <= t is then strictly inside the
// window, and the clock must land exactly on t.
func stepShard(s *Shard, horizon, t time.Duration) {
	if horizon > t {
		s.eng.RunUntil(t)
		return
	}
	s.eng.RunBefore(horizon)
}

// exchangeRound gathers every shard's outbox, sorts the batch into the
// canonical (At, From, Seq) order, and schedules each message's delivery
// on its destination engine. Destination clocks are at or before every
// At (the lookahead rule), so no message lands in a shard's past.
//
//detlint:hotpath
func (w *World) exchangeRound() {
	batch := w.exchange[:0]
	for _, s := range w.shards {
		batch = append(batch, s.outbox...)
		s.outbox = s.outbox[:0]
	}
	if len(batch) == 0 {
		w.exchange = batch
		return
	}
	// Insertion sort: rounds carry few messages, and this keeps the
	// exchange path free of sort.Slice's closure allocation.
	for i := 1; i < len(batch); i++ {
		m := batch[i]
		j := i - 1
		for j >= 0 && messageAfter(batch[j], m) {
			batch[j+1] = batch[j]
			j--
		}
		batch[j+1] = m
	}
	for _, m := range batch {
		m := m
		dst := w.shards[m.To]
		//detlint:allow hotpath — one closure per cross-shard message is the delivery contract; rounds carry few messages by the lookahead design
		dst.eng.ScheduleAt(m.At, m.Kind, func() {
			if dst.deliver != nil {
				dst.deliver(m)
			}
		})
		w.delivered++
	}
	w.exchange = batch
}

// messageAfter reports a > b in the canonical exchange order.
func messageAfter(a, b Message) bool {
	if a.At != b.At {
		return a.At > b.At
	}
	if a.From != b.From {
		return a.From > b.From
	}
	return a.Seq > b.Seq
}
