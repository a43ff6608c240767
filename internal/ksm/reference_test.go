package ksm

import (
	"fmt"
	"math/rand"
	"testing"

	"cloudskulk/internal/mem"
)

// refDaemon is the scanner as it was before settled regions: every page
// visited, the stable tree looked up before the self-candidate check, the
// unstable tree a Go map. It differs from that version in two deliberate
// changes: the stale self-candidate fix (a replaced candidate loses its
// mark), and the cursor fix (unregistering a region before the cursor
// leaves the cursor on the region being scanned).
// FuzzScanMatchesReference holds the production Daemon to it.
type refDaemon struct {
	regions   []*refRegion
	cursor    int
	stable    map[mem.Content]*mem.SharedGroup
	candidate map[mem.Content]candidateRef

	merges, pagesScan, checksumSkips uint64
}

type candidateRef struct {
	space *mem.Space
	page  int
}

type refRegion struct {
	space *mem.Space
	next  int
	sums  []mem.Content
	flags []uint8
}

func newRefDaemon() *refDaemon {
	return &refDaemon{
		stable:    make(map[mem.Content]*mem.SharedGroup),
		candidate: make(map[mem.Content]candidateRef),
	}
}

func (d *refDaemon) Register(s *mem.Space) {
	for _, r := range d.regions {
		if r.space == s {
			return
		}
	}
	d.regions = append(d.regions, &refRegion{space: s})
}

func (d *refDaemon) Unregister(s *mem.Space) {
	for c, ref := range d.candidate {
		if ref.space == s {
			delete(d.candidate, c)
		}
	}
	for i, r := range d.regions {
		if r.space == s {
			d.regions = append(d.regions[:i], d.regions[i+1:]...)
			if i < d.cursor {
				d.cursor-- // the cursor fix
			}
			if d.cursor >= len(d.regions) {
				d.cursor = 0
			}
			return
		}
	}
}

func (d *refDaemon) ScanN(n int) int {
	if len(d.regions) == 0 {
		return 0
	}
	merged := 0
	for left := n; left > 0; {
		r := d.regions[d.cursor]
		if r.next >= r.space.NumPages() {
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
		end := r.next + left
		if np := r.space.NumPages(); end > np {
			end = np
		}
		for page := r.next; page < end; page++ {
			if d.examine(r, page) {
				merged++
			}
		}
		d.pagesScan += uint64(end - r.next)
		left -= end - r.next
		r.next = end
	}
	return merged
}

func (d *refDaemon) clearSelfCand(s *mem.Space, page int) {
	for _, r := range d.regions {
		if r.space == s && page < len(r.flags) {
			r.flags[page] &^= flagSelfCand
		}
	}
}

func (d *refDaemon) examine(r *refRegion, page int) bool {
	if r.sums == nil {
		r.sums = make([]mem.Content, r.space.NumPages())
		r.flags = make([]uint8, r.space.NumPages())
	}
	s := r.space
	content, shared, volatile := s.PageInfo(page)
	if volatile || shared {
		return false
	}
	if g, ok := d.stable[content]; ok {
		if g.Refs == 0 || g.Content != content {
			delete(d.stable, content)
		} else {
			if err := s.AttachShared(page, g); err != nil {
				return false
			}
			r.flags[page] &^= flagSelfCand
			d.merges++
			return true
		}
	}
	switch {
	case r.flags[page]&flagHasSum == 0:
		r.sums[page] = content
		r.flags[page] |= flagHasSum
	case r.sums[page] != content:
		r.sums[page] = content
		r.flags[page] &^= flagSelfCand
		if r.flags[page]&flagChanged != 0 {
			d.checksumSkips++
			return false
		}
		r.flags[page] |= flagChanged
	case r.flags[page]&flagSelfCand != 0:
		r.flags[page] &^= flagChanged
		return false
	default:
		r.flags[page] &^= flagChanged
	}
	if cand, ok := d.candidate[content]; ok {
		if cand.space == s && cand.page == page {
			r.flags[page] |= flagSelfCand
			return false
		}
		if pc, err := cand.space.Read(cand.page); err != nil || pc != content {
			d.clearSelfCand(cand.space, cand.page) // the stale self-candidate fix
			d.candidate[content] = candidateRef{space: s, page: page}
			r.flags[page] |= flagSelfCand
			return false
		}
		if _, partnerShared := cand.space.Shared(cand.page); partnerShared {
			delete(d.candidate, content)
			d.clearSelfCand(cand.space, cand.page)
			return false
		}
		g := &mem.SharedGroup{Content: content}
		if err := cand.space.AttachShared(cand.page, g); err != nil {
			return false
		}
		if err := s.AttachShared(page, g); err != nil {
			return false
		}
		d.stable[content] = g
		delete(d.candidate, content)
		d.clearSelfCand(cand.space, cand.page)
		r.flags[page] &^= flagSelfCand
		d.merges++
		return true
	}
	d.candidate[content] = candidateRef{space: s, page: page}
	r.flags[page] |= flagSelfCand
	return false
}

// fuzzWorld is one copy of the spaces a fuzz run drives: three standalone
// spaces and one forked from a shared template, all small and drawn from a
// five-value content alphabet so merges, replacements and group deaths are
// frequent.
type fuzzWorld struct {
	spaces []*mem.Space
}

var fuzzSizes = []int{1, 3, 8}

func newFuzzWorld(tmpl *mem.Template) *fuzzWorld {
	w := &fuzzWorld{}
	for i, n := range fuzzSizes {
		w.spaces = append(w.spaces, mem.NewSpace(string(rune('a'+i)), int64(n)*mem.PageSize))
	}
	w.spaces = append(w.spaces, mem.SpawnFrom("fork", tmpl))
	return w
}

// fuzzOp applies one decoded operation to a world; scan is the world's
// scanner. ops is the 4-byte encoding: opcode, then three arguments.
func fuzzOp(t *testing.T, w *fuzzWorld, scan interface {
	Register(*mem.Space)
	Unregister(*mem.Space)
	ScanN(int) int
}, op [4]byte) {
	t.Helper()
	s := w.spaces[int(op[1])%len(w.spaces)]
	page := int(op[2]) % s.NumPages()
	c := mem.Content(op[3] % 5)
	switch op[0] % 10 {
	case 0:
		if _, err := s.Write(page, c); err != nil {
			t.Fatal(err)
		}
	case 1:
		f := &mem.File{Name: "f"}
		for i := 0; i <= int(op[3]>>4)%3 && page+i < s.NumPages(); i++ {
			f.Pages = append(f.Pages, (c+mem.Content(i))%5)
		}
		if err := s.LoadFile(f, page); err != nil {
			t.Fatal(err)
		}
	case 2:
		if err := s.MarkVolatile(page, op[3]&1 == 1); err != nil {
			t.Fatal(err)
		}
	case 3:
		s.Reset()
	case 4:
		s.FillRandom(rand.New(rand.NewSource(int64(op[2]))), float64(op[3]%3)/2)
	case 5:
		scan.Register(s)
	case 6:
		scan.Unregister(s)
	case 7:
		scan.ScanN(1 + int(op[2])%5)
	case 8:
		scan.ScanN(int(op[2]))
	case 9:
		// Leave and come back: the region loses its entries and its id, and
		// its next first visit takes a freed id.
		scan.Unregister(s)
		scan.Register(s)
	}
}

// FuzzScanMatchesReference drives the production Daemon and refDaemon
// through the same operation sequence on two identical worlds, and after
// every operation demands identical page state, group partitions, merge and
// scan counters, unstable trees and per-page scan flags, plus a clean
// CheckInvariants.
func FuzzScanMatchesReference(f *testing.F) {
	f.Add([]byte{5, 0, 0, 0, 5, 1, 0, 0, 5, 2, 0, 0, 5, 3, 0, 0, 8, 0, 40, 0, 8, 0, 40, 0, 8, 0, 40, 0})
	// The stale self-candidate sequence: b=space 1 registered before
	// a=space 0; a[0] becomes the candidate for 3, moves to 4, b[0]
	// displaces the entry, a[0] goes back to 3.
	f.Add([]byte{0, 0, 0, 3, 0, 1, 0, 2, 5, 1, 0, 0, 5, 0, 0, 0, 8, 0, 4, 0,
		0, 0, 0, 4, 0, 1, 0, 3, 7, 0, 0, 0, 0, 0, 0, 3, 8, 0, 8, 0, 8, 0, 8, 0})
	// Merge inside a space, then FillRandom and Reset over the group.
	f.Add([]byte{0, 2, 1, 2, 0, 2, 2, 2, 5, 2, 0, 0, 8, 0, 16, 0, 8, 0, 16, 0,
		4, 2, 7, 0, 8, 0, 16, 0, 0, 2, 1, 2, 0, 2, 2, 2, 8, 0, 32, 0, 3, 2, 0, 0, 8, 0, 32, 0})
	// Volatility, a forked space, and an Unregister in the middle of a lap.
	f.Add([]byte{5, 3, 0, 0, 5, 2, 0, 0, 5, 1, 0, 0, 8, 0, 30, 0, 2, 3, 4, 1, 7, 0, 2, 0,
		6, 2, 0, 0, 8, 0, 30, 0, 2, 3, 4, 0, 1, 3, 5, 0x21, 8, 0, 60, 0, 8, 0, 60, 0})
	// The cursor fix: a (1 page), b (3 pages) and c (8 pages) registered in
	// that order; a wake of 3 stops inside b, then a, which is behind the
	// cursor, leaves. The next wake must finish b's lap, not start c's.
	f.Add([]byte{0, 1, 0, 1, 0, 1, 1, 2, 0, 1, 2, 3, 5, 0, 0, 0, 5, 1, 0, 0, 5, 2, 0, 0,
		7, 0, 2, 0, 6, 0, 0, 0, 7, 0, 1, 0, 8, 0, 20, 0})
	// Unregister and re-register with candidates and a stale entry in
	// place: the freed id is reused, and the stale entry must be swept.
	f.Add([]byte{0, 0, 0, 3, 0, 1, 0, 4, 0, 1, 1, 2, 5, 0, 0, 0, 5, 1, 0, 0, 8, 0, 12, 0,
		0, 1, 1, 1, 8, 0, 12, 0, 9, 1, 0, 0, 8, 0, 12, 0, 9, 0, 0, 0, 8, 0, 12, 0, 8, 0, 12, 0})
	tmpl := func() *mem.Template {
		src := mem.NewSpace("golden", 8*mem.PageSize)
		for p := 0; p < 8; p++ {
			if _, err := src.Write(p, mem.Content(p%3)); err != nil {
				f.Fatal(err)
			}
		}
		return mem.Freeze("golden", src)
	}()
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4*256 {
			data = data[:4*256]
		}
		got, want := newFuzzWorld(tmpl), newFuzzWorld(tmpl)
		d := New(nil, DefaultCostModel())
		ref := newRefDaemon()
		for i := 0; i < len(data); i += 4 {
			var op [4]byte
			copy(op[:], data[i:])
			fuzzOp(t, got, d, op)
			fuzzOp(t, want, ref, op)
			if err := compareScanners(got, d, want, ref); err != nil {
				t.Fatalf("after op %d %v: %v", i/4, op, err)
			}
			if err := d.CheckInvariants(); err != nil {
				t.Fatalf("after op %d %v: %v", i/4, op, err)
			}
		}
	})
}

// compareScanners returns the first difference between the two worlds and
// their scanners, or nil.
func compareScanners(gw *fuzzWorld, d *Daemon, ww *fuzzWorld, ref *refDaemon) error {
	got := [3]uint64{d.Merges(), d.pagesScan, d.ChecksumSkips()}
	want := [3]uint64{ref.merges, ref.pagesScan, ref.checksumSkips}
	if got != want {
		return fmt.Errorf("merges/scanned/skips = %v, want %v", got, want)
	}
	index := func(w *fuzzWorld, s *mem.Space) int {
		for i, x := range w.spaces {
			if x == s {
				return i
			}
		}
		return -1
	}
	// Groups are compared by partition: each is numbered by the first page
	// attached to it, in space-then-page order.
	gids := map[*mem.SharedGroup]int{}
	wids := map[*mem.SharedGroup]int{}
	for i := range gw.spaces {
		gs, ws := gw.spaces[i], ww.spaces[i]
		for p := 0; p < gs.NumPages(); p++ {
			gc, gShared, gVol := gs.PageInfo(p)
			wc, wShared, wVol := ws.PageInfo(p)
			if gc != wc || gShared != wShared || gVol != wVol {
				return fmt.Errorf("%s[%d] content/shared/volatile = %#x/%v/%v, want %#x/%v/%v",
					gs.Name(), p, uint64(gc), gShared, gVol, uint64(wc), wShared, wVol)
			}
			if !gShared {
				continue
			}
			gg, _ := gs.Shared(p)
			wg, _ := ws.Shared(p)
			if _, ok := gids[gg]; !ok {
				gids[gg] = len(gids)
			}
			if _, ok := wids[wg]; !ok {
				wids[wg] = len(wids)
			}
			if gids[gg] != wids[wg] || gg.Refs != wg.Refs {
				return fmt.Errorf("%s[%d] group/refs = %d/%d, want %d/%d",
					gs.Name(), p, gids[gg], gg.Refs, wids[wg], wg.Refs)
			}
		}
	}
	if liveGroups(d) != refLiveGroups(ref) || len(d.stable) != len(ref.stable) {
		return fmt.Errorf("live groups/stable entries = %d/%d, want %d/%d",
			liveGroups(d), len(d.stable), refLiveGroups(ref), len(ref.stable))
	}
	if d.cand.n != len(ref.candidate) {
		return fmt.Errorf("%d candidates, want %d", d.cand.n, len(ref.candidate))
	}
	for c, wr := range ref.candidate {
		gr, gp, ok := d.candidateOf(c)
		if !ok || index(gw, gr.space) != index(ww, wr.space) || gp != wr.page {
			var gs *mem.Space
			if ok {
				gs = gr.space
			}
			return fmt.Errorf("candidate for %#x = %v space %d page %d, want space %d page %d",
				uint64(c), ok, index(gw, gs), gp, index(ww, wr.space), wr.page)
		}
	}
	if len(d.regions) != len(ref.regions) || d.cursor != ref.cursor {
		return fmt.Errorf("regions/cursor = %d/%d, want %d/%d", len(d.regions), d.cursor, len(ref.regions), ref.cursor)
	}
	for i, r := range d.regions {
		rr := ref.regions[i]
		var flags []uint8
		var sums []mem.Content
		if r.scan != nil {
			flags, sums = r.scan.flags, r.scan.sums
		}
		if index(gw, r.space) != index(ww, rr.space) || r.next != rr.next || len(flags) != len(rr.flags) {
			return fmt.Errorf("region %d = space %d next %d, want space %d next %d",
				i, index(gw, r.space), r.next, index(ww, rr.space), rr.next)
		}
		for p := range flags {
			if flags[p] != rr.flags[p] || sums[p] != rr.sums[p] {
				return fmt.Errorf("%s[%d] flags/sum = %03b/%#x, want %03b/%#x",
					r.space.Name(), p, flags[p], uint64(sums[p]), rr.flags[p], uint64(rr.sums[p]))
			}
		}
	}
	return nil
}

func refLiveGroups(d *refDaemon) int {
	n := 0
	for _, g := range d.stable {
		if g.Refs > 0 {
			n++
		}
	}
	return n
}
