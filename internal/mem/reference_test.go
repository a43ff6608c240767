package mem

import (
	"fmt"
	"math/rand"
)

// refSpace is the previous page layout kept as the reference that
// FuzzSpaceOps checks Space against: a 24-byte struct per page holding the
// content, the KSM group and the volatile flag, forks privatizing []refPage
// chunks, and a content hash kept current by every write. Its one change
// from that layout is FillRandom clearing volatility on standalone spaces
// too, as Space does.
type refSpace struct {
	name       string
	npages     int
	pages      []refPage
	tmpl       *refTemplate
	chunks     [][]refPage
	dirty      *Bitmap
	hash       uint64
	writes     uint64
	cowBreaks  uint64
	forkCopies uint64
	onWrite    func(p int, c Content)
}

type refPage struct {
	content  Content
	shared   *SharedGroup
	volatile bool
}

type refTemplate struct {
	pages []refPage
	hash  uint64
}

func newRefSpace(name string, sizeBytes int64) *refSpace {
	n := int((sizeBytes + PageSize - 1) / PageSize)
	return &refSpace{name: name, npages: n, pages: make([]refPage, n), dirty: NewBitmap(n)}
}

func (s *refSpace) pageRef(p int) *refPage {
	if s.pages != nil {
		return &s.pages[p]
	}
	if s.chunks != nil {
		if ch := s.chunks[p>>chunkShift]; ch != nil {
			return &ch[p&chunkMask]
		}
	}
	return &s.tmpl.pages[p]
}

func (s *refSpace) pageMut(p int) *refPage {
	if s.pages != nil {
		return &s.pages[p]
	}
	if s.chunks == nil {
		s.chunks = make([][]refPage, (s.npages+chunkMask)>>chunkShift)
	}
	ci := p >> chunkShift
	ch := s.chunks[ci]
	if ch == nil {
		lo := ci << chunkShift
		hi := lo + chunkSize
		if hi > s.npages {
			hi = s.npages
		}
		ch = make([]refPage, hi-lo)
		copy(ch, s.tmpl.pages[lo:hi])
		s.chunks[ci] = ch
		s.forkCopies++
	}
	return &ch[p&chunkMask]
}

func (s *refSpace) decommissionFork() {
	if s.tmpl == nil {
		return
	}
	for _, ch := range s.chunks {
		for i := range ch {
			if ch[i].shared != nil {
				ch[i].shared.Refs--
			}
		}
	}
	s.tmpl = nil
	s.chunks = nil
	s.pages = make([]refPage, s.npages)
}

func (s *refSpace) Read(p int) (Content, error) {
	if p < 0 || p >= s.npages {
		return 0, fmt.Errorf("%w: %s page %d of %d", ErrOutOfRange, s.name, p, s.npages)
	}
	pg := s.pageRef(p)
	if pg.shared != nil {
		return pg.shared.Content, nil
	}
	return pg.content, nil
}

func (s *refSpace) Write(p int, c Content) (WriteResult, error) {
	if p < 0 || p >= s.npages {
		return WriteResult{}, fmt.Errorf("%w: %s page %d of %d", ErrOutOfRange, s.name, p, s.npages)
	}
	pg := s.pageMut(p)
	s.writes++
	var res WriteResult
	if pg.shared != nil {
		res.CowBroken = true
		res.Changed = pg.shared.Content != c
		s.hash ^= pageSig(p, pg.shared.Content) ^ pageSig(p, c)
		pg.shared.Refs--
		pg.shared = nil
		pg.content = c
		s.cowBreaks++
	} else {
		res.Changed = pg.content != c
		s.hash ^= pageSig(p, pg.content) ^ pageSig(p, c)
		pg.content = c
	}
	s.dirty.Set(p)
	if s.onWrite != nil {
		s.onWrite(p, c)
	}
	return res, nil
}

func (s *refSpace) WriteRun(start int, cs []Content) error {
	if start < 0 || start+len(cs) > s.npages {
		return fmt.Errorf("%w: %s run at %d", ErrOutOfRange, s.name, start)
	}
	for i, c := range cs {
		if _, err := s.Write(start+i, c); err != nil {
			return err
		}
	}
	return nil
}

// PullDirty is pre-copy's transfer before the fused kernel: drain src's
// dirty log, then read and write each page it named in ascending order,
// counting zero pages and the non-zero pages the sent bitmap already had.
func (s *refSpace) PullDirty(src *refSpace, sent *Bitmap) (Pulled, error) {
	var n Pulled
	if src.npages != s.npages || (sent != nil && sent.n != s.npages) {
		return n, fmt.Errorf("mem: pull %s into %s: size mismatch", src.name, s.name)
	}
	pages := setBits(src.dirty)
	src.dirty.ClearAll()
	for _, p := range pages {
		c, err := src.Read(p)
		if err != nil {
			return n, err
		}
		resend := sent != nil && sent.Test(p)
		if _, err := s.Write(p, c); err != nil {
			return n, err
		}
		n.Pages++
		switch {
		case c == ZeroPage:
			n.Zeros++
		case resend:
			n.Resent++
		}
		if sent != nil {
			sent.Set(p)
		}
	}
	return n, nil
}

func (s *refSpace) LoadFile(f *File, at int) error {
	if at < 0 || at+len(f.Pages) > s.npages {
		return fmt.Errorf("%w: load %q at %d", ErrOutOfRange, f.Name, at)
	}
	for i, c := range f.Pages {
		p := at + i
		pg := s.pageMut(p)
		if pg.shared != nil {
			s.hash ^= pageSig(p, pg.shared.Content)
			pg.shared.Refs--
			pg.shared = nil
		} else {
			s.hash ^= pageSig(p, pg.content)
		}
		pg.content = c
		s.hash ^= pageSig(p, c)
	}
	return nil
}

func (s *refSpace) MarkVolatile(p int, v bool) error {
	if p < 0 || p >= s.npages {
		return fmt.Errorf("%w: %s page %d", ErrOutOfRange, s.name, p)
	}
	if s.pageRef(p).volatile == v {
		return nil
	}
	s.pageMut(p).volatile = v
	return nil
}

func (s *refSpace) Volatile(p int) bool {
	if p < 0 || p >= s.npages {
		return false
	}
	return s.pageRef(p).volatile
}

func (s *refSpace) Shared(p int) (*SharedGroup, bool) {
	if p < 0 || p >= s.npages {
		return nil, false
	}
	g := s.pageRef(p).shared
	return g, g != nil
}

func (s *refSpace) AttachShared(p int, g *SharedGroup) error {
	if p < 0 || p >= s.npages {
		return fmt.Errorf("%w: %s page %d", ErrOutOfRange, s.name, p)
	}
	if s.pageRef(p).shared == g {
		return nil
	}
	cur, _, _ := s.PageInfo(p)
	if cur != g.Content {
		return fmt.Errorf("mem: attach %s page %d: content %#x != group %#x", s.name, p, cur, g.Content)
	}
	pg := s.pageMut(p)
	if pg.shared != nil {
		pg.shared.Refs--
	}
	pg.shared = g
	g.Refs++
	return nil
}

func (s *refSpace) PageInfo(p int) (c Content, shared, volatile bool) {
	if p < 0 || p >= s.npages {
		return ZeroPage, false, false
	}
	pg := s.pageRef(p)
	if pg.shared != nil {
		return pg.shared.Content, true, pg.volatile
	}
	return pg.content, false, pg.volatile
}

func (s *refSpace) Reset() {
	s.decommissionFork()
	for i := range s.pages {
		if s.pages[i].shared != nil {
			s.pages[i].shared.Refs--
			s.pages[i].shared = nil
		}
		s.pages[i].content = ZeroPage
		s.pages[i].volatile = false
	}
	s.hash = 0
	s.dirty.ClearAll()
}

func (s *refSpace) FillRandom(rng *rand.Rand, zeroFraction float64) {
	s.decommissionFork()
	h := uint64(0)
	for i := range s.pages {
		if rng.Float64() < zeroFraction {
			s.pages[i].content = ZeroPage
		} else {
			s.pages[i].content = Content(rng.Uint64() | 1)
			h ^= pageSig(i, s.pages[i].content)
		}
		if s.pages[i].shared != nil {
			s.pages[i].shared.Refs--
			s.pages[i].shared = nil
		}
		s.pages[i].volatile = false
	}
	s.hash = h
	s.dirty.ClearAll()
}

func (s *refSpace) Snapshot() []Content {
	dst := make([]Content, s.npages)
	for p := range dst {
		dst[p], _ = s.Read(p)
	}
	return dst
}

func (s *refSpace) RangeHash(from, n int) uint64 {
	if from < 0 {
		n += from
		from = 0
	}
	if from+n > s.npages {
		n = s.npages - from
	}
	h := uint64(0)
	for p := from; p < from+n; p++ {
		c, _ := s.Read(p)
		h ^= pageSig(p, c)
	}
	return h
}

func (s *refSpace) MaterializedChunks() int {
	n := 0
	for _, ch := range s.chunks {
		if ch != nil {
			n++
		}
	}
	return n
}

func refFreeze(src *refSpace) *refTemplate {
	t := &refTemplate{pages: make([]refPage, src.npages), hash: src.hash}
	for p := range t.pages {
		t.pages[p].content, _ = src.Read(p)
	}
	return t
}

func refSpawnFrom(name string, t *refTemplate) *refSpace {
	n := len(t.pages)
	return &refSpace{name: name, npages: n, tmpl: t, dirty: NewBitmap(n), hash: t.hash}
}
