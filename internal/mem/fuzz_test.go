package mem

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"cloudskulk/internal/sim"
)

// spacePair runs one operation sequence on a pool of Spaces and, in
// lockstep, on a pool of refSpaces holding the same contents. KSM groups
// are created in parallel, so group i on one side stands for group i on
// the other.
type spacePair struct {
	got  []*Space
	want []*refSpace
	// groups[0] are the Space side's groups, groups[1] the reference's;
	// ids maps each group to its index on its side.
	groups [2][]*SharedGroup
	ids    map[*SharedGroup]int
	// sent is each side's XBZRLE sent bitmap, sized for the two large
	// slots; hooked is the slot whose write hook is installed (-1: none),
	// and log each side's record of the hook's calls since the last compare.
	sent   [2]*Bitmap
	hooked int
	log    [2][]string
	// tmpls holds every template frozen so far, each with a handle over
	// its pages, for the DeltaFrom check.
	tmpls []*Template
}

func newSpacePair() *spacePair {
	sp := &spacePair{ids: make(map[*SharedGroup]int), hooked: -1}
	// Two multi-chunk spaces (the last chunk partial) and one smaller than
	// a chunk, so forks exercise full, partial and single-chunk layouts.
	for i, pages := range []int{2*chunkSize + 88, 2*chunkSize + 88, 130} {
		name := string(rune('a' + i))
		sp.got = append(sp.got, NewSpace(name, int64(pages)*PageSize))
		sp.want = append(sp.want, newRefSpace(name, int64(pages)*PageSize))
	}
	for side := range sp.sent {
		sp.sent[side] = NewBitmap(sp.got[0].NumPages())
	}
	return sp
}

const spaceOpKinds = 14

// apply decodes one four-byte record into an operation, runs it on both
// sides of slot op/spaceOpKinds, and fails on any disagreement in what the
// operation returned.
func (sp *spacePair) apply(t *testing.T, op, x, y, z byte) {
	t.Helper()
	slot := int(op/spaceOpKinds) % len(sp.got)
	s, r := sp.got[slot], sp.want[slot]
	p := (int(x)<<8 | int(y)) % s.NumPages()
	c := Content(z % 8)
	switch op % spaceOpKinds {
	case 0:
		gr, gerr := s.Write(p, c)
		wr, werr := r.Write(p, c)
		if gr != wr || (gerr == nil) != (werr == nil) {
			t.Fatalf("Write(%d, %#x) = %+v, %v; reference %+v, %v", p, c, gr, gerr, wr, werr)
		}
	case 1:
		f := &File{Name: "f", Pages: make([]Content, int(z%5)+1)}
		for i := range f.Pages {
			f.Pages[i] = Content((int(z) + 3*i) % 8)
		}
		if gerr, werr := s.LoadFile(f, p), r.LoadFile(f, p); (gerr == nil) != (werr == nil) {
			t.Fatalf("LoadFile at %d: %v; reference %v", p, gerr, werr)
		}
	case 2:
		// The Space takes the bulk fill, the reference the per-page loop.
		frac := float64(y%4) / 4
		s.FillRandom(sim.NewRand(int64(z)), frac)
		r.FillRandom(rand.New(rand.NewSource(int64(z))), frac)
	case 3:
		s.Reset()
		r.Reset()
	case 4:
		cur, _ := r.Read(p)
		for side := range sp.groups {
			g := &SharedGroup{Content: cur}
			sp.ids[g] = len(sp.groups[side])
			sp.groups[side] = append(sp.groups[side], g)
		}
		sp.attach(t, s, r, p, len(sp.groups[0])-1)
	case 5:
		if n := len(sp.groups[0]); n > 0 {
			sp.attach(t, s, r, p, int(z)%n)
		}
	case 6:
		v := z&1 == 1
		if gerr, werr := s.MarkVolatile(p, v), r.MarkVolatile(p, v); (gerr == nil) != (werr == nil) {
			t.Fatalf("MarkVolatile(%d, %t): %v; reference %v", p, v, gerr, werr)
		}
	case 7:
		// Pull this slot's dirty log into slot z>>1 further on (itself, the
		// other large slot, or the small one, whose size differs), with
		// the sent bitmaps when z is odd.
		di := (slot + int(z>>1)) % len(sp.got)
		d, rd := sp.got[di], sp.want[di]
		var sent [2]*Bitmap
		if z&1 == 1 {
			sent = sp.sent
		}
		gen, writes := d.Generation(), d.writes
		gn, gerr := d.PullDirty(s, sent[0])
		wn, werr := rd.PullDirty(r, sent[1])
		if gn != wn || (gerr == nil) != (werr == nil) {
			t.Fatalf("slot %d PullDirty(slot %d, sent %t) = %+v, %v; reference %+v, %v", di, slot, z&1 == 1, gn, gerr, wn, werr)
		}
		if d.Generation()-gen != d.writes-writes {
			t.Fatalf("PullDirty moved the generation %d for %d writes", d.Generation()-gen, d.writes-writes)
		}
	case 8:
		s.ClearDirty()
		r.dirty.ClearAll()
	case 9:
		s.MarkAllDirty()
		r.dirty.SetAll()
	case 10:
		got, want := s.Snapshot(), r.Snapshot()
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("Snapshot[%d] = %#x; reference %#x", i, got[i], want[i])
			}
		}
	case 11:
		dst := int(z) % len(sp.got)
		tmpl, rtmpl := Freeze("img", s), refFreeze(r)
		if tmpl.ContentHash() != rtmpl.hash {
			t.Fatalf("Freeze hash %#x; reference %#x", tmpl.ContentHash(), rtmpl.hash)
		}
		sp.got[dst] = SpawnFrom("fork", tmpl)
		sp.want[dst] = refSpawnFrom("fork", rtmpl)
		sp.tmpls = append(sp.tmpls, tmpl, tmpl.Handle("img-handle"))
		if dst == sp.hooked {
			sp.hooked = -1
		}
	case 12:
		run := make([]Content, int(z)%75)
		for i := range run {
			run[i] = Content((int(z) + i) % 8)
		}
		gen, writes := s.Generation(), s.writes
		if gerr, werr := s.WriteRun(p, run), r.WriteRun(p, run); (gerr == nil) != (werr == nil) {
			t.Fatalf("WriteRun(%d, %d pages): %v; reference %v", p, len(run), gerr, werr)
		}
		if s.Generation()-gen != s.writes-writes {
			t.Fatalf("WriteRun moved the generation %d for %d writes", s.Generation()-gen, s.writes-writes)
		}
	case 13:
		sp.hook(slot)
	}
}

// hook moves the write hook to slot, or removes it if slot has it. The
// hook logs each call with the state it sees and mirrors the write into
// the next slot, which may be the source of the pull that triggered it.
func (sp *spacePair) hook(slot int) {
	if sp.hooked >= 0 {
		sp.got[sp.hooked].SetWriteHook(nil)
		sp.want[sp.hooked].onWrite = nil
	}
	if sp.hooked == slot {
		sp.hooked = -1
		return
	}
	sp.hooked = slot
	next := (slot + 1) % len(sp.got)
	s, r := sp.got[slot], sp.want[slot]
	s.SetWriteHook(func(p int, c Content) {
		sp.log[0] = append(sp.log[0], fmt.Sprintf("%d=%#x read %#x dirty %d writes %d", p, c, s.MustRead(p), s.DirtyCount(), s.writes))
		m := sp.got[next]
		_, _ = m.Write(p%m.NumPages(), c)
	})
	r.onWrite = func(p int, c Content) {
		cur, _ := r.Read(p)
		sp.log[1] = append(sp.log[1], fmt.Sprintf("%d=%#x read %#x dirty %d writes %d", p, c, cur, r.dirty.Count(), r.writes))
		m := sp.want[next]
		_, _ = m.Write(p%m.npages, c)
	}
}

func (sp *spacePair) attach(t *testing.T, s *Space, r *refSpace, p, gi int) {
	t.Helper()
	gerr := s.AttachShared(p, sp.groups[0][gi])
	werr := r.AttachShared(p, sp.groups[1][gi])
	if (gerr == nil) != (werr == nil) {
		t.Fatalf("AttachShared(%d, group %d): %v; reference %v", p, gi, gerr, werr)
	}
}

// compare fails on the first observable that differs between the two
// sides, then runs CheckInvariants on every Space. x and y pick the
// RangeHash window.
func (sp *spacePair) compare(t *testing.T, x, y byte) {
	t.Helper()
	for i, s := range sp.got {
		r := sp.want[i]
		if s.NumPages() != r.npages || s.Forked() != (r.tmpl != nil) {
			t.Fatalf("slot %d: %d pages forked=%t; reference %d forked=%t",
				i, s.NumPages(), s.Forked(), r.npages, r.tmpl != nil)
		}
		for p := 0; p < s.NumPages(); p++ {
			gc, gerr := s.Read(p)
			wc, werr := r.Read(p)
			gi, gs, gv := s.PageInfo(p)
			wi, ws, wv := r.PageInfo(p)
			gg, _ := s.Shared(p)
			wg, _ := r.Shared(p)
			if gc != wc || gerr != nil || werr != nil || gi != wi || gs != ws || gv != wv ||
				(gg == nil) != (wg == nil) || (gg != nil && sp.ids[gg] != sp.ids[wg]) || isVolatile(s, p) != r.Volatile(p) {
				t.Fatalf("slot %d page %d: content %#x shared %t (group %d) volatile %t; reference %#x %t (group %d) %t",
					i, p, gc, gs, sp.ids[gg], gv, wc, ws, sp.ids[wg], wv)
			}
		}
		gw, gcow := s.Stats()
		if !slices.Equal(dirtyPages(s), setBits(r.dirty)) {
			t.Fatalf("slot %d: dirty pages %v; reference %v", i, dirtyPages(s), setBits(r.dirty))
		}
		if s.DirtyCount() != r.dirty.Count() || gw != r.writes || gcow != r.cowBreaks ||
			s.ForkStats() != r.forkCopies || s.MaterializedChunks() != r.MaterializedChunks() {
			t.Fatalf("slot %d: dirty %d writes %d cow %d copies %d chunks %d; reference %d %d %d %d %d",
				i, s.DirtyCount(), gw, gcow, s.ForkStats(), s.MaterializedChunks(),
				r.dirty.Count(), r.writes, r.cowBreaks, r.forkCopies, r.MaterializedChunks())
		}
		if s.ContentHash() != r.hash {
			t.Fatalf("slot %d: ContentHash %#x; reference %#x", i, s.ContentHash(), r.hash)
		}
		from, n := int(x)-8, int(y)*3
		if g, w := s.RangeHash(from, n), r.RangeHash(from, n); g != w {
			t.Fatalf("slot %d: RangeHash(%d, %d) = %#x; reference %#x", i, from, n, g, w)
		}
		if err := s.CheckInvariants(); err != nil {
			t.Fatalf("slot %d: %v", i, err)
		}
		for ti, tmpl := range sp.tmpls {
			checkDelta(t, i, ti, s, r, tmpl)
		}
	}
	for gi, g := range sp.groups[0] {
		if w := sp.groups[1][gi]; g.Refs != w.Refs {
			t.Fatalf("group %d: %d refs; reference %d", gi, g.Refs, w.Refs)
		}
	}
	if !slices.Equal(setBits(sp.sent[0]), setBits(sp.sent[1])) {
		t.Fatalf("sent %v; reference %v", setBits(sp.sent[0]), setBits(sp.sent[1]))
	}
	if !slices.Equal(sp.log[0], sp.log[1]) {
		t.Fatalf("write hook saw\n%v\nreference\n%v", sp.log[0], sp.log[1])
	}
	sp.log[0], sp.log[1] = sp.log[0][:0], sp.log[1][:0]
}

// checkDelta fails unless s.DeltaFrom(tmpl) lists exactly the pages where
// the reference r reads differently from tmpl, in ascending order, and
// errors on a size mismatch instead.
func checkDelta(t *testing.T, slot, ti int, s *Space, r *refSpace, tmpl *Template) {
	t.Helper()
	pages, data, err := s.DeltaFrom(tmpl, nil, nil)
	if s.NumPages() != tmpl.NumPages() {
		if err == nil {
			t.Fatalf("slot %d: DeltaFrom a %d-page template of %d pages did not fail", slot, tmpl.NumPages(), s.NumPages())
		}
		return
	}
	var wantPages []int
	var wantData []Content
	for p := 0; p < r.npages; p++ {
		c, _ := r.Read(p)
		if c != tmpl.pages[p] {
			wantPages = append(wantPages, p)
			wantData = append(wantData, c)
		}
	}
	if err != nil || !slices.Equal(pages, wantPages) || !slices.Equal(data, wantData) {
		t.Fatalf("slot %d: DeltaFrom template %d = %v %v, %v; page by page %v %v",
			slot, ti, pages, data, err, wantPages, wantData)
	}
}

// FuzzSpaceOps is the differential check of the page layout: a byte string
// decodes into Write, LoadFile, FillRandom, Reset, AttachShared to a new or
// an existing group, MarkVolatile, PullDirty between two slots, ClearDirty,
// MarkAllDirty, Snapshot, Freeze then SpawnFrom, WriteRun, and moving
// a write hook, four bytes per operation, run on Spaces and on the
// previous layout in refSpace, whose PullDirty drains the source's log and
// then reads and writes one page at a time. After every operation every
// observable must agree, the write hook must have seen the same calls in
// the same states, CheckInvariants must pass, and every slot's DeltaFrom
// against every template frozen so far (and a handle over it) must match
// a page-by-page compare.
func FuzzSpaceOps(f *testing.F) {
	// Records are (op, page hi, page lo, value); op%14 is the kind and
	// op/14 the slot.
	f.Add([]byte{
		0, 0, 5, 3, // write a[5] = 3
		0, 0, 6, 3, // write a[6] = 3
		4, 0, 5, 0, // attach a[5] to new group 0
		5, 0, 6, 0, // attach a[6] to group 0
		0, 0, 5, 4, // COW break a[5]
		11, 0, 0, 2, // freeze a, spawn into c
		34, 1, 9, 1, // MarkVolatile c[265]
		32, 1, 7, 1, // attach c[263] to a new group
		28, 1, 7, 6, // write c[263] (COW break on the fork)
		35, 0, 0, 4, // pull fork c into b
		21, 0, 0, 2, // pull b into fork c
		35, 0, 0, 3, // pull c into a, which has a KSM side table, with the sent bitmap
		30, 0, 0, 9, // FillRandom c
		31, 0, 0, 0, // Reset c
		26, 0, 60, 70, // WriteRun b[60..130), across a word boundary
		13, 0, 0, 0, // hook a, mirroring its writes into b
		23, 0, 0, 0, // mark all of b dirty
		21, 0, 0, 5, // pull b into hooked a (COW-breaking a[6]) with the sent bitmap
		21, 0, 0, 5, // again: the hook re-dirtied b, so pages are re-sent
		12, 0, 7, 3, // WriteRun a[7..10) through the hook
		13, 0, 0, 0, // unhook a
		4, 1, 0, 0, // attach a[256] to a new group
		23, 0, 0, 0, // mark all of b dirty
		21, 0, 0, 4, // pull b into a: COW-breaks a[256] with no hook
	})
	f.Add([]byte{
		9, 0, 0, 0, // mark all of a dirty
		1, 2, 30, 4, // load a file over the partial last chunk
		7, 0, 0, 6, // pull a into itself
		11, 0, 0, 1, // freeze a into b
		15, 2, 40, 2, // load a file into fork b
		18, 0, 1, 0, // attach b[1] to a new group
		24, 0, 0, 0, // snapshot b
		25, 0, 0, 0, // freeze b into a
		6, 0, 3, 1, // MarkVolatile a[3]
		2, 0, 1, 7, // FillRandom a
		22, 0, 0, 0, // clear b's dirty log
		35, 0, 0, 2, // pull c into a: sizes differ
		40, 0, 120, 20, // WriteRun c[120..140): past the end
	})
	f.Add([]byte{
		0, 0, 5, 3, // write a[5] = 3
		11, 0, 0, 1, // freeze a, spawn into b
		14, 0, 9, 4, // write b[9] = 4: materializes b's chunk 0
		14, 0, 9, 0, // write b[9] back to the image's 0: no delta
		14, 1, 4, 2, // write b[260] = 2: a second chunk, a real delta
		14, 1, 4, 0, // and back again
		14, 0, 255, 2, // write b[255] = 2: the last page of chunk 0
		14, 2, 87, 3, // write b[599] = 3: the last page of the partial last chunk
	})
	f.Fuzz(func(t *testing.T, data []byte) {
		sp := newSpacePair()
		for ; len(data) >= 4; data = data[4:] {
			sp.apply(t, data[0], data[1], data[2], data[3])
			sp.compare(t, data[1], data[2])
		}
	})
}
