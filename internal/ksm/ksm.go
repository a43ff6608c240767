// Package ksm implements the kernel samepage merging daemon the detection
// approach builds on.
//
// The model follows Linux's ksmd: registered memory regions are scanned a
// fixed number of pages per wakeup; a page whose content matches an
// already-merged (stable) page joins its shared group; two not-yet-merged
// pages with equal content get merged into a new group. Writes to merged
// pages break copy-on-write (handled in the mem package) and cost far more
// than regular writes — the timing signal the CloudSkulk detector measures.
package ksm

import (
	"fmt"
	"time"

	"cloudskulk/internal/mem"
	"cloudskulk/internal/sim"
	"cloudskulk/internal/telemetry"
)

// ksmd's sysfs tunables, set as on a tuned-for-dedup host (cloud hosts
// running KSM typically raise pages_to_scan well above the kernel default
// of 100).
const (
	// scanInterval is the daemon's wake period (sleep_millisecs).
	scanInterval = 20 * time.Millisecond
	// pagesPerScan is how many pages each wake examines (pages_to_scan).
	pagesPerScan = 5000
)

// CostModel gives the write-latency consequences of deduplication, used by
// everything that measures page-write timing (the detection protocol).
type CostModel struct {
	// RegularWrite is a write to an exclusive page.
	RegularWrite time.Duration
	// CowBreakWrite is a write that must first break a merged page:
	// fault, allocate, copy 4 KiB, fix mappings, TLB shootdown.
	CowBreakWrite time.Duration
}

// DefaultCostModel is calibrated to the gap prior memory-dedup side-channel
// work measured (the paper cites Xiao et al. and Suzuki et al.: an order of
// magnitude or more).
func DefaultCostModel() CostModel {
	return CostModel{
		RegularWrite:  900 * time.Nanosecond,
		CowBreakWrite: 28 * time.Microsecond,
	}
}

// WriteCost returns the time one write took, given what it did.
func (c CostModel) WriteCost(res mem.WriteResult) time.Duration {
	if res.CowBroken {
		return c.CowBreakWrite
	}
	return c.RegularWrite
}

// Per-page scan flags, ksmd's oldchecksum bookkeeping in miniature.
const (
	// flagHasSum marks that sums[page] holds the content seen at the
	// page's last scan; a first visit is always processed in full.
	flagHasSum uint8 = 1 << 0
	// flagSelfCand marks that this page is the unstable tree's entry for
	// sums[page]. While it stays unchanged and unshared, re-examining it is
	// a provable no-op, so the scan skips the tree lookups entirely.
	flagSelfCand uint8 = 1 << 1
	// flagChanged marks that the page's content had changed at its
	// previous visit; a second consecutive change trips the volatility
	// gate.
	flagChanged uint8 = 1 << 2
)

type region struct {
	space *mem.Space
	next  int        // scan cursor within the region
	scan  *scanState // nil until the region's first scan visit

	// settledSpace and settledStable are the space and stable-tree
	// generations a full lap of no-op visits ended at; settledStable == 0
	// means the region is not settled (the stable generation starts at 1).
	// While both still match, every page of the region is a no-op to
	// visit and the scan skips it without looking.
	settledSpace, settledStable uint64
}

// scanState is a region's scan bookkeeping. It is allocated on the
// region's first scan visit, so registering a space — which kvm does for
// every guest at CreateVM — stays one small allocation: a fleet of 100k
// template-forked guests costs nothing more here until ksmd actually walks
// their pages.
type scanState struct {
	// sums[i] is page i's content at its previous scan visit — the
	// model's stand-in for ksmd's per-rmap_item checksum.
	sums  []mem.Content
	flags []uint8
	// id is the region's slot in Daemon.byID; unstable-tree entries for
	// its pages carry id+1.
	id uint32
	// cands counts the unstable-tree entries naming the region. It can
	// exceed the pages marked flagSelfCand: a candidate whose page has
	// since changed keeps its entry until the content is met again.
	cands int
}

// settled reports whether the region's settle marker still holds.
func (r *region) settled(stableGen uint64) bool {
	return r.settledStable == stableGen && r.settledSpace == r.space.Generation()
}

// ensure allocates r's scan bookkeeping and id on first use.
func (d *Daemon) ensure(r *region) {
	if r.scan != nil {
		return
	}
	n := r.space.NumPages()
	st := &scanState{sums: make([]mem.Content, n), flags: make([]uint8, n)}
	if k := len(d.freeIDs); k > 0 {
		st.id = d.freeIDs[k-1]
		d.freeIDs = d.freeIDs[:k-1]
		d.byID[st.id] = r
	} else {
		st.id = uint32(len(d.byID))
		d.byID = append(d.byID, r)
	}
	r.scan = st
}

// Daemon is the samepage-merging scanner.
type Daemon struct {
	eng    *sim.Engine
	costs  CostModel
	ticker *sim.Ticker

	regions []*region
	cursor  int // index into regions of the region being scanned

	// stable maps page content to its shared group — the stable tree.
	stable map[mem.Content]*mem.SharedGroup
	// cand holds the first-seen location of an unmerged content — the
	// unstable tree. A second page with the same content triggers a merge.
	cand candTable
	// byID maps a region id to its region, nil for a free id; freeIDs
	// holds the free ids for reuse. A region takes an id on its first scan
	// visit and frees it at Unregister, after its entries leave cand.
	byID    []*region
	freeIDs []uint32
	// stableGen counts insertions into the stable tree, starting at 1.
	stableGen uint64
	// lap watches the lap in progress, keyed by its region. A region is
	// scanned front to back before the cursor moves on, so one watch is
	// enough; a lap cut short by unregistering its region is never ended,
	// and the next region's first page replaces the watch.
	lap lapWatch

	merges        uint64
	pagesScan     uint64
	checksumSkips uint64

	telScanned *telemetry.Counter
	telMerges  *telemetry.Counter
	telGap     *telemetry.Histogram
	lastWake   time.Duration
	hasWake    bool
}

// lapWatch is the bookkeeping for one region's lap: the generations at its
// first page and whether every visit since was a no-op. A lap that ends
// with clean still set and both generations unchanged settles the region.
type lapWatch struct {
	r                   *region
	spaceGen, stableGen uint64
	clean               bool
}

// New returns a stopped daemon with the given cost model.
func New(eng *sim.Engine, costs CostModel) *Daemon {
	return &Daemon{
		eng:       eng,
		costs:     costs,
		stable:    make(map[mem.Content]*mem.SharedGroup),
		stableGen: 1,
	}
}

// SetTelemetry attaches (or with nil detaches) a metrics registry:
// pages scanned and merges become counters, and the virtual-time gap
// between scan wakeups feeds the pass-duration histogram (ScanN itself
// advances no time; the ticker cadence is the observable pass timing).
func (d *Daemon) SetTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		d.telScanned, d.telMerges, d.telGap = nil, nil, nil
		return
	}
	d.telScanned = reg.Counter("ksm_pages_scanned_total")
	d.telMerges = reg.Counter("ksm_merges_total")
	d.telGap = reg.Histogram("ksm_scan_gap_us", telemetry.DurationBuckets)
}

// Costs returns the daemon's write cost model.
func (d *Daemon) Costs() CostModel { return d.costs }

// Register adds a space to the scan set — the moral equivalent of
// madvise(MADV_MERGEABLE) over a QEMU process's guest RAM. Registering the
// same space twice is a no-op; the space records its daemon, so telling
// the two apart costs no search. A space's pages live in one machine's
// memory, so it can be registered with one daemon at a time: registering
// it with a second one panics.
func (d *Daemon) Register(s *mem.Space) {
	switch s.Scanner() {
	case d:
		return
	case nil:
	default:
		panic(fmt.Sprintf("ksm: space %s is already registered with another daemon", s.Name()))
	}
	s.SetScanner(d)
	d.regions = append(d.regions, &region{space: s})
}

// Unregister removes a space from the scan set (the space's pages keep any
// sharing they already have until written) and forgets any unstable-tree
// candidates pointing into it — an unregistered region's pages are going
// away (process exit, VM kill) and must not seed future merges. Like
// ksmd's scan cursor, which names the current mm_slot, the cursor stays on
// the region being scanned when another region leaves the list.
func (d *Daemon) Unregister(s *mem.Space) {
	if s.Scanner() != d {
		return
	}
	s.SetScanner(nil)
	for i, r := range d.regions {
		if r.space != s {
			continue
		}
		if r.scan != nil {
			d.dropCandidates(r.scan)
		}
		d.regions = append(d.regions[:i], d.regions[i+1:]...)
		if i < d.cursor {
			d.cursor--
		}
		if d.cursor >= len(d.regions) {
			d.cursor = 0
		}
		return
	}
}

// dropCandidates deletes every unstable-tree entry naming st's region and
// frees its id. A page marked flagSelfCand is the entry for its recorded
// sum, so those entries are deleted by key; only entries left behind by
// pages that changed since (st.cands still above zero) cost one sweep of
// the table.
func (d *Daemon) dropCandidates(st *scanState) {
	rid := st.id + 1
	for p, f := range st.flags {
		if st.cands == 0 {
			break
		}
		if f&flagSelfCand == 0 {
			continue
		}
		if i, ok := d.cand.find(st.sums[p]); ok && d.cand.slots[i].rid == rid && int(d.cand.slots[i].page) == p {
			d.cand.del(i)
			st.cands--
		}
	}
	if st.cands > 0 {
		st.cands -= d.cand.sweep(rid)
	}
	d.byID[st.id] = nil
	d.freeIDs = append(d.freeIDs, st.id)
}

// NumRegions returns how many spaces are registered.
//
//detlint:allow deadcode — cleanup checker: kvm's create and kill tests prove a torn-down VM leaves no KSM region
func (d *Daemon) NumRegions() int { return len(d.regions) }

// Start begins periodic scanning on the engine. Starting twice is a no-op.
func (d *Daemon) Start() {
	if d.ticker != nil && !d.ticker.Stopped() {
		return
	}
	d.hasWake = false
	d.ticker = sim.NewTicker(d.eng, scanInterval, "ksmd.scan", func() {
		now := d.eng.Now()
		if d.hasWake {
			d.telGap.Observe((now - d.lastWake).Microseconds())
		}
		d.lastWake, d.hasWake = now, true
		d.ScanN(pagesPerScan)
	})
}

// Stop halts periodic scanning.
func (d *Daemon) Stop() {
	if d.ticker != nil {
		d.ticker.Stop()
	}
}

// Running reports whether the daemon is actively scanning.
func (d *Daemon) Running() bool {
	return d.ticker != nil && !d.ticker.Stopped()
}

// ScanN examines up to n pages, advancing round-robin across regions, and
// merges what it finds. It returns how many merges happened.
//
// The loop is batched region-by-region: instead of re-discovering the
// cursor position per page, it runs straight through the current region's
// raw page storage until the region is exhausted or the budget spent. Page
// visit order — and therefore every merge decision — is identical to the
// one-page-at-a-time loop it replaced.
//
// A settled region (see region.settledStable) is not examined: its cursor
// and the scan counters move exactly as if each page had been visited,
// because each such visit would have changed nothing.
func (d *Daemon) ScanN(n int) int {
	if len(d.regions) == 0 {
		return 0
	}
	merged, scanned := 0, d.pagesScan
	for left := n; left > 0; {
		r := d.regions[d.cursor]
		if r.next >= r.space.NumPages() {
			// Current region exhausted: reset its cursor and take the
			// next region with pages. A full lap finding nothing means
			// every region is empty — the old loop burned its remaining
			// budget discovering that; stopping here is observably the
			// same (no pages scanned, cursor back where it started).
			r.next = 0
			d.cursor = (d.cursor + 1) % len(d.regions)
			for lap := 1; lap < len(d.regions); lap++ {
				nr := d.regions[d.cursor]
				if nr.next < nr.space.NumPages() {
					break
				}
				nr.next = 0
				d.cursor = (d.cursor + 1) % len(d.regions)
			}
			r = d.regions[d.cursor]
			if r.next >= r.space.NumPages() {
				break
			}
		}
		np := r.space.NumPages()
		end := r.next + left
		if end > np {
			end = np
		}
		if r.next == 0 {
			d.lap = lapWatch{r: r, spaceGen: r.space.Generation(), stableGen: d.stableGen, clean: true}
		}
		if !r.settled(d.stableGen) {
			d.ensure(r)
			clean := true
			for page := r.next; page < end; page++ {
				m, noop := d.examine(r, page)
				if m {
					merged++
				}
				clean = clean && noop
			}
			d.lap.clean = d.lap.clean && clean
		}
		d.pagesScan += uint64(end - r.next)
		left -= end - r.next
		r.next = end
		if end == np {
			d.endLap(r)
		}
	}
	d.telScanned.Add(d.pagesScan - scanned)
	return merged
}

// endLap settles r if the lap that just ended on it was all no-op visits
// with its space and the stable tree unchanged throughout, and unsettles it
// otherwise.
func (d *Daemon) endLap(r *region) {
	w := d.lap
	d.lap = lapWatch{}
	if w.r == r && w.clean && w.spaceGen == r.space.Generation() && w.stableGen == d.stableGen {
		r.settledSpace, r.settledStable = w.spaceGen, w.stableGen
		return
	}
	r.settledStable = 0
}

// FullPass scans every registered page exactly once (two consecutive full
// passes guarantee every mergeable pair has met the candidate table).
//
//detlint:allow deadcode — test driver: the merge, gate and reference-model tests scan whole laps through it
func (d *Daemon) FullPass() int {
	total := 0
	for _, r := range d.regions {
		total += r.space.NumPages()
	}
	return d.ScanN(total)
}

// regionOf finds the region backing a space. Only cold paths use it; the
// scan loop itself never searches.
func (d *Daemon) regionOf(s *mem.Space) *region {
	for _, r := range d.regions {
		if r.space == s {
			return r
		}
	}
	return nil
}

// clearSelfCand drops a page's self-candidate mark once it stops being the
// unstable tree's entry for its content (merged, replaced, or entry
// deleted). The page's region is unsettled: this is the one change to a
// region's scan state made from outside its own visits.
func clearSelfCand(r *region, page int) {
	r.scan.flags[page] &^= flagSelfCand
	r.settledStable = 0
}

// examine applies the merge rules to one page. It reports whether a merge
// (attach) happened, and whether the visit was a no-op: one that changed no
// state at all. A lap of no-op visits is what settles a region.
//
// Like ksmd, the stable tree is consulted unconditionally, but the
// unstable tree is checksum-gated: a page whose content changed on two
// consecutive visits only has its checksum refreshed — it is not inserted
// as a merge candidate until it holds still for a full scan cycle. A
// single change (a migration fill, the detector's file push) still
// inserts immediately, so one-shot writes keep the exact merge timing the
// ungated scanner had; only sustained churn is kept out of the tree.
//
// Exactly three kinds of visit are no-ops: to a volatile page, to a shared
// page, and to a page that is its own unchanged candidate with flagChanged
// already clear. Every other path below mutates the daemon or the region.
func (d *Daemon) examine(r *region, page int) (merged, noop bool) {
	s, st := r.space, r.scan
	content, shared, volatile := s.PageInfo(page)
	if volatile || shared {
		return false, true
	}

	// Unchanged, unshared, and already our own candidate: the entry
	// cannot have been replaced (replacement requires the holder's content
	// to have changed, and clears the mark) nor consumed (a merge would
	// have attached this page). Nor can the stable tree hold this content:
	// the page passed the stable lookup when it became the candidate, and
	// a stable entry is only created by merging the candidate. So the
	// stable lookup is skipped too, with the same outcome.
	if f := st.flags[page]; f&flagSelfCand != 0 && st.sums[page] == content {
		st.flags[page] = f &^ flagChanged
		return false, f&flagChanged == 0
	}

	// Stable tree hit: join the existing group.
	if g, ok := d.stable[content]; ok {
		if g.Refs == 0 || g.Content != content {
			// Group died (all members wrote) — drop the stale entry
			// and fall through to candidate handling.
			delete(d.stable, content)
		} else {
			if err := s.AttachShared(page, g); err != nil {
				return false, false
			}
			st.flags[page] &^= flagSelfCand
			d.merges++
			d.telMerges.Inc()
			return true, false
		}
	}

	// Checksum gate (ksmd's oldchecksum heuristic): pages churning across
	// consecutive visits stay out of the unstable tree.
	switch {
	case st.flags[page]&flagHasSum == 0:
		// First visit: record and proceed, so freshly registered regions
		// (the detector's probe spaces) behave exactly as before.
		st.sums[page] = content
		st.flags[page] |= flagHasSum
	case st.sums[page] != content:
		st.sums[page] = content
		st.flags[page] &^= flagSelfCand
		if st.flags[page]&flagChanged != 0 {
			// Changed last visit too: sustained churn — skip.
			d.checksumSkips++
			return false, false
		}
		st.flags[page] |= flagChanged
	default:
		st.flags[page] &^= flagChanged
	}

	// Unstable tree: look for a waiting partner.
	rid := st.id + 1
	i, found := d.cand.find(content)
	if !found {
		d.cand.insert(i, candSlot{key: content, rid: rid, page: uint32(page)})
		st.cands++
		st.flags[page] |= flagSelfCand
		return false, false
	}
	e := &d.cand.slots[i]
	if e.rid == rid && int(e.page) == page {
		st.flags[page] |= flagSelfCand
		return false, false
	}
	pr, pp := d.byID[e.rid-1], int(e.page)
	// The partner must still hold the same content (it may have been
	// written since we recorded it). If it does not, this page takes over
	// the entry, and the partner loses its mark: left set, a later write
	// back to this content would have both pages skip as "their own
	// candidate" and never merge.
	if pc, err := pr.space.Read(pp); err != nil || pc != content {
		clearSelfCand(pr, pp)
		pr.scan.cands--
		e.rid, e.page = rid, uint32(page)
		st.cands++
		st.flags[page] |= flagSelfCand
		return false, false
	}
	if _, partnerShared := pr.space.Shared(pp); partnerShared {
		// Partner got merged through another route; retry via
		// stable tree next scan.
		d.cand.del(i)
		pr.scan.cands--
		clearSelfCand(pr, pp)
		return false, false
	}
	g := &mem.SharedGroup{Content: content}
	if err := pr.space.AttachShared(pp, g); err != nil {
		return false, false
	}
	if err := s.AttachShared(page, g); err != nil {
		return false, false
	}
	d.stable[content] = g
	d.stableGen++
	d.cand.del(i)
	pr.scan.cands--
	clearSelfCand(pr, pp)
	st.flags[page] &^= flagSelfCand
	d.merges++
	d.telMerges.Inc()
	return true, false
}

// CheckInvariants rebuilds what the scan's bookkeeping claims from the
// pages themselves and returns the first disagreement, or nil:
//
//   - the unstable tree is well formed (candTable.check): its count, every
//     entry reachable from its home slot, unique keys, load at most 3/4;
//   - region ids: each scanned registered region holds its own slot of
//     byID, every other slot is free and listed once in freeIDs;
//   - every unstable-tree entry names a registered region and one of its
//     pages, and each region counts exactly the entries naming it;
//   - a page marked as its own candidate is the unstable tree's entry for
//     the content recorded at its last visit;
//   - every page of a settled region is a no-op to visit: volatile, shared,
//     or its own unchanged candidate with flagChanged clear;
//   - a shared group has at least as many refs as registered pages attached
//     to it (unregistered spaces may hold the rest).
//
// It walks every registered page and every slot, so it belongs in tests,
// not in a scan.
//
//detlint:allow deadcode — invariant checker: the ksm fuzz targets and detect's scenario tests run it
func (d *Daemon) CheckInvariants() error {
	if err := d.cand.check(); err != nil {
		return err
	}
	if err := d.checkIDs(); err != nil {
		return err
	}
	cands := make([]int, len(d.byID))
	for _, e := range d.cand.slots {
		if e.rid == 0 {
			continue
		}
		if int(e.rid) > len(d.byID) || d.byID[e.rid-1] == nil {
			return fmt.Errorf("ksm: unstable-tree entry for %#x names region id %d, which no registered region holds",
				uint64(e.key), e.rid-1)
		}
		if r := d.byID[e.rid-1]; int(e.page) >= r.space.NumPages() {
			return fmt.Errorf("ksm: unstable-tree entry for %#x names %s page %d, past its end",
				uint64(e.key), r.space.Name(), e.page)
		}
		cands[e.rid-1]++
	}
	attached := make(map[*mem.SharedGroup]int)
	for _, r := range d.regions {
		if r.scan != nil && r.scan.cands != cands[r.scan.id] {
			return fmt.Errorf("ksm: %s counts %d unstable-tree entries, the tree holds %d",
				r.space.Name(), r.scan.cands, cands[r.scan.id])
		}
		for p := 0; p < r.space.NumPages(); p++ {
			if g, ok := r.space.Shared(p); ok {
				attached[g]++
			}
		}
	}
	for _, r := range d.regions {
		s := r.space
		settled := r.settled(d.stableGen)
		if settled && r.scan == nil {
			return fmt.Errorf("ksm: %s settled before any visit", s.Name())
		}
		for p := 0; p < s.NumPages(); p++ {
			content, shared, volatile := s.PageInfo(p)
			var f uint8
			var sum mem.Content
			if r.scan != nil {
				f, sum = r.scan.flags[p], r.scan.sums[p]
			}
			if f&flagSelfCand != 0 {
				if cr, cp, ok := d.candidateOf(sum); !ok || cr != r || cp != p {
					return fmt.Errorf("ksm: %s page %d is marked as the candidate for %#x, which is not its entry",
						s.Name(), p, uint64(sum))
				}
			}
			selfCand := f&(flagSelfCand|flagChanged) == flagSelfCand && sum == content
			if settled && !volatile && !shared && !selfCand {
				return fmt.Errorf("ksm: %s page %d is in a settled region but visiting it would change state",
					s.Name(), p)
			}
			if g, ok := s.Shared(p); ok && g.Refs < attached[g] {
				return fmt.Errorf("ksm: group %#x has %d refs but %d registered pages attached",
					uint64(g.Content), g.Refs, attached[g])
			}
		}
	}
	return nil
}

// checkIDs returns the first inconsistency between the registered regions,
// byID and freeIDs, or nil.
func (d *Daemon) checkIDs() error {
	held := make([]bool, len(d.byID))
	for _, r := range d.regions {
		if r.scan == nil {
			continue
		}
		id := r.scan.id
		if int(id) >= len(d.byID) || d.byID[id] != r {
			return fmt.Errorf("ksm: %s has region id %d, which byID does not map to it", r.space.Name(), id)
		}
		held[id] = true
	}
	for _, id := range d.freeIDs {
		if int(id) >= len(d.byID) || held[id] || d.byID[id] != nil {
			return fmt.Errorf("ksm: free region id %d is in use or listed twice", id)
		}
		held[id] = true
	}
	for id, h := range held {
		if !h {
			return fmt.Errorf("ksm: region id %d is neither held by a registered region nor free", id)
		}
	}
	return nil
}

// candidateOf returns the region and page of the unstable tree's entry for
// c, if there is one.
func (d *Daemon) candidateOf(c mem.Content) (*region, int, bool) {
	i, ok := d.cand.find(c)
	if !ok {
		return nil, 0, false
	}
	e := d.cand.slots[i]
	return d.byID[e.rid-1], int(e.page), true
}

// Merges returns the lifetime count of successful merges (attaches).
//
//detlint:allow deadcode — test oracle: the reference-model differential compares it with the model's merges
func (d *Daemon) Merges() uint64 { return d.merges }

// ChecksumSkips returns how many page visits the volatility gate cut
// short: pages whose content changed on two consecutive scans and were
// therefore kept out of the unstable tree for that visit.
//
//detlint:allow deadcode — test oracle: the gate tests and the reference-model differential count skips
func (d *Daemon) ChecksumSkips() uint64 { return d.checksumSkips }

// GatedPages reports how many pages of the given registered space are
// currently marked as having changed at their previous scan visit — the
// population the volatility gate holds out of (or is about to hold out of)
// the unstable tree. An attacker churning shared-candidate pages to dodge
// dedup shows up here: evasion evidence the coverage matrix renders.
// Returns 0 for an unregistered space.
func (d *Daemon) GatedPages(s *mem.Space) int {
	r := d.regionOf(s)
	if r == nil || r.scan == nil {
		return 0
	}
	n := 0
	for _, f := range r.scan.flags {
		if f&flagChanged != 0 {
			n++
		}
	}
	return n
}
