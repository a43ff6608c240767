package mem

import (
	"fmt"
	"math/bits"
)

// CheckInvariants recomputes the space's lazily built bookkeeping from its
// pages and returns the first disagreement, or nil:
//
//   - the layout is a flat page array, or a template plus an optional chunk
//     index with correctly sized chunks, and no more chunks are materialized
//     than were ever copied;
//   - a template still hashes to the value recorded at Freeze, so no fork
//     wrote through to it;
//   - every merged page's word equals its group's Content, and each group
//     has at least as many refs as this space has pages attached to it;
//   - the dirty and volatility bitmaps cover every page, count exactly the
//     bits they hold, and hold none past the last page.
//
// It walks every page, so it belongs in tests, not on a hot path.
//
//detlint:allow deadcode — invariant checker: FuzzSpaceOps and the mem and migrate tests run it
func (s *Space) CheckInvariants() error {
	if s.tmpl == nil {
		if len(s.pages) != s.npages || s.chunks != nil {
			return fmt.Errorf("mem: %s: standalone layout has %d of %d pages, chunk index %t",
				s.name, len(s.pages), s.npages, s.chunks != nil)
		}
	} else {
		if err := s.checkFork(); err != nil {
			return err
		}
	}
	if uint64(s.MaterializedChunks()) > s.forkCopies {
		return fmt.Errorf("mem: %s: %d chunks materialized but only %d ever copied",
			s.name, s.MaterializedChunks(), s.forkCopies)
	}
	if s.shared != nil && len(s.shared) != s.npages {
		return fmt.Errorf("mem: %s: KSM table covers %d of %d pages", s.name, len(s.shared), s.npages)
	}
	attached := make(map[*SharedGroup]int)
	for p, g := range s.shared {
		if g == nil {
			continue
		}
		if c := s.word(p); c != g.Content {
			return fmt.Errorf("mem: %s page %d: word %#x != its group's content %#x", s.name, p, c, g.Content)
		}
		attached[g]++
	}
	for p, g := range s.shared {
		if g != nil && g.Refs < attached[g] {
			return fmt.Errorf("mem: %s page %d: group %#x has %d refs but %d pages attached",
				s.name, p, g.Content, g.Refs, attached[g])
		}
	}
	if err := s.dirty.check(s.npages); err != nil {
		return fmt.Errorf("mem: %s dirty log: %w", s.name, err)
	}
	if err := s.volatile.check(s.npages); err != nil {
		return fmt.Errorf("mem: %s volatility flags: %w", s.name, err)
	}
	return nil
}

// checkFork checks a forked space's template and chunk index.
func (s *Space) checkFork() error {
	if s.pages != nil || len(s.tmpl.pages) != s.npages {
		return fmt.Errorf("mem: %s: forked layout has a flat array (%t) or a %d-page template for %d pages",
			s.name, s.pages != nil, len(s.tmpl.pages), s.npages)
	}
	h := uint64(0)
	for p, c := range s.tmpl.pages {
		h ^= pageSig(p, c)
	}
	if h != s.tmpl.hash {
		return fmt.Errorf("mem: template %s: pages hash to %#x, frozen as %#x", s.tmpl.name, h, s.tmpl.hash)
	}
	if s.chunks != nil && len(s.chunks) != (s.npages+chunkMask)>>chunkShift {
		return fmt.Errorf("mem: %s: chunk index has %d entries for %d pages", s.name, len(s.chunks), s.npages)
	}
	for ci, ch := range s.chunks {
		if ch != nil && len(ch) != chunkLen(ci, s.npages) {
			return fmt.Errorf("mem: %s: chunk %d has %d pages, want %d", s.name, ci, len(ch), chunkLen(ci, s.npages))
		}
	}
	return nil
}

// check reports whether the bitmap tracks n bits, its count equals the
// popcount of its words, and no bit at or past n is set.
func (b *Bitmap) check(n int) error {
	if b.n != n {
		return fmt.Errorf("tracks %d bits, want %d", b.n, n)
	}
	if b.words != nil && len(b.words) != (n+63)/64 {
		return fmt.Errorf("%d words for %d bits", len(b.words), n)
	}
	pop := 0
	for _, w := range b.words {
		pop += bits.OnesCount64(w)
	}
	if pop != b.set {
		return fmt.Errorf("count %d != popcount %d", b.set, pop)
	}
	if tail := uint(n) % 64; tail != 0 && b.words != nil && b.words[len(b.words)-1]>>tail != 0 {
		return fmt.Errorf("bits set at or past %d", n)
	}
	return nil
}
