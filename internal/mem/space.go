// Package mem models guest physical memory at page granularity.
//
// A page's contents are abstracted as a 64-bit Content word: two pages are
// byte-identical in the modelled system if and only if their Content words
// are equal. This keeps a 1 GiB guest at ~2 MiB of simulator state while
// preserving everything KSM, live migration, and the detector care about —
// identity, uniqueness, and change of page contents.
//
// Layout: a space stores exactly one pointer-free Content word per page (a
// flat []Content, or a template plus privatized []Content chunks for a
// fork), and that word is always the page's logical content, merged or not.
// Per-page state that most pages never have lives in side tables allocated
// on first use: the KSM table of shared groups (on the first AttachShared)
// and the volatility and dirty bitmaps (on the first bit set). So a fresh
// 1 GiB space is 2 MiB of words the garbage collector never scans.
//
// Pages are written one at a time (Write) or as a run of consecutive pages
// (WriteRun). Live migration moves a guest with PullDirty, the pre-copy
// primitive: it fetches and clears a source's dirty log and copies the
// pages it names into the receiver a bitmap word at a time, a fully dirty
// word between two flat page arrays as one 64-page copy. Both keep exactly
// Write's per-page effects.
package mem

import (
	"errors"
	"fmt"
	"math/bits"

	"cloudskulk/internal/sim"
)

// PageSize is the modelled page size in bytes (x86 small pages).
const PageSize = 4096

// Content abstracts the full byte contents of one page. Equal words model
// byte-identical pages. The zero value models the all-zeroes page, which is
// what freshly allocated guest RAM contains and what KSM merges aggressively.
type Content uint64

// ZeroPage is the content of an untouched page.
const ZeroPage Content = 0

// VMCS signature modelling: a hardware-assisted (VT-x) hypervisor keeps a
// Virtual Machine Control Structure per vCPU in memory, carrying a
// recognizable revision identifier. Memory-forensic scanners (Graziano et
// al., the paper's §VI-E) find nested hypervisors by that signature. A
// software-MMU hypervisor keeps no VMCS, which is the scanner's blind spot.
const (
	// VMCSSignatureMask selects the signature bits of a VMCS page.
	VMCSSignatureMask Content = 0xFFFFFFFF00000000
	// VMCSSignature is the modelled revision-identifier pattern.
	VMCSSignature Content = 0x12AD5EED00000000
)

// VMCSContent builds the content of a VMCS page for the given vCPU id.
func VMCSContent(id uint32) Content {
	return VMCSSignature | Content(id)
}

// IsVMCS reports whether a page content carries the VMCS signature.
func IsVMCS(c Content) bool {
	return c&VMCSSignatureMask == VMCSSignature
}

// ErrOutOfRange is returned for accesses beyond the end of a space.
var ErrOutOfRange = errors.New("mem: page number out of range")

// SharedGroup is one KSM-merged physical page: several (space, page) slots
// all backed by a single read-only frame. Writes to any member must break
// the sharing (copy-on-write). Content is fixed at creation: a merged
// page's own word equals it for as long as the page stays attached.
type SharedGroup struct {
	Content Content
	Refs    int
}

// WriteResult describes what a page write did, so cost models can charge
// the right amount of virtual time.
type WriteResult struct {
	// CowBroken is true when the write hit a KSM-merged page and had to
	// copy it first — the expensive case the detector's timing probe keys on.
	CowBroken bool
	// Changed is true when the written content differed from the old one.
	Changed bool
}

// Fork-level copy-on-write: a Space spawned from a Template (SpawnFrom)
// holds no page storage of its own at first — reads resolve against the
// template's frozen page array, and the first write to a page privatizes
// just that page's chunk (a fixed-size run of pages). The chunk, not the
// whole space, is the materialization unit: a 100k-guest fleet forked from
// one golden image pays for exactly the chunks its guests actually touch.
const (
	chunkShift = 8 // 256 pages = 1 MiB of modelled memory per chunk
	chunkSize  = 1 << chunkShift
	chunkMask  = chunkSize - 1
)

// Space is one guest-physical (or host-process) address space.
type Space struct {
	name string
	// npages is the authoritative page count. pages (standalone) or
	// tmpl+chunks (forked) provide the backing words.
	npages int
	// pages is the flat backing array of a standalone space. It is nil for
	// a space spawned from a Template, which starts with zero private
	// storage and materializes chunks on first write.
	pages []Content
	// tmpl is the frozen golden image a forked space reads through; nil
	// for standalone spaces.
	tmpl *Template
	// chunks holds the privatized chunk copies of a forked space, indexed
	// by page>>chunkShift; a nil entry means "still reading the template".
	chunks [][]Content
	// shared is the KSM side table: shared[p] is the group page p is
	// merged into, or nil. It stays nil until the first AttachShared, then
	// covers every page until Reset or FillRandom drops it.
	shared []*SharedGroup
	// volatile flags pages that change too often for KSM to bother
	// merging (the ksmd heuristic of skipping pages whose checksum churns).
	volatile Bitmap
	dirty    Bitmap

	// gen is the mutation generation: bumped by every change to a page's
	// content, sharing or volatility (Write, LoadFile, FillRandom, Reset,
	// MarkVolatile, AttachShared). An unchanged generation proves every
	// page reads back exactly as it did, which is what lets the KSM scan
	// skip regions it has already found settled and loadvm skip an
	// unchanged restore.
	gen uint64

	writes    uint64
	cowBreaks uint64
	// forkCopies counts chunks privatized from the template — the
	// fork-level analogue of cowBreaks.
	forkCopies uint64

	// onWrite, when set, observes every completed write — the model's
	// write-protection trap. A hypervisor that write-protects guest
	// pages to track changes (the paper's §VI-D countermeasure) hangs
	// its synchronizer here.
	onWrite func(page int, c Content)

	// scanner is the KSM daemon the space is registered with, nil if none.
	// Like Linux's MMF_VM_MERGEABLE it marks the memory itself, so the
	// daemon checks a registration without searching its scan list.
	scanner any
}

// NewSpace returns a space of sizeBytes rounded up to whole pages, with all
// pages zero. The name appears in errors and experiment traces.
func NewSpace(name string, sizeBytes int64) *Space {
	n := int((sizeBytes + PageSize - 1) / PageSize)
	return &Space{
		name:     name,
		npages:   n,
		pages:    make([]Content, n),
		volatile: Bitmap{n: n},
		dirty:    Bitmap{n: n},
	}
}

// word returns page p's logical content. Callers must have bounds-checked p.
func (s *Space) word(p int) Content {
	if s.pages != nil {
		return s.pages[p]
	}
	if s.chunks != nil {
		if ch := s.chunks[p>>chunkShift]; ch != nil {
			return ch[p&chunkMask]
		}
	}
	return s.tmpl.pages[p]
}

// wordMut returns a writable pointer to page p's word, privatizing the
// enclosing chunk from the template on first touch. Callers must have
// bounds-checked p.
func (s *Space) wordMut(p int) *Content {
	if s.pages != nil {
		return &s.pages[p]
	}
	if s.chunks == nil {
		// First write since the fork: materialize the chunk index. Kept
		// out of SpawnFrom so a fork is O(1) even in its bookkeeping —
		// the index is npages/chunkSize wide, noticeable at 1 GB guests.
		s.chunks = make([][]Content, (s.npages+chunkMask)>>chunkShift)
	}
	ci := p >> chunkShift
	ch := s.chunks[ci]
	if ch == nil {
		lo := ci << chunkShift
		ch = make([]Content, chunkLen(ci, s.npages))
		copy(ch, s.tmpl.pages[lo:])
		s.chunks[ci] = ch
		s.forkCopies++
	}
	return &ch[p&chunkMask]
}

// chunkLen is the page count of chunk ci in a space of n pages: chunkSize,
// or less for the final chunk.
func chunkLen(ci, n int) int {
	return min(chunkSize, n-ci<<chunkShift)
}

// unshare detaches page p from its KSM group, if it has one, and reports
// whether it did. Callers must have bounds-checked p.
func (s *Space) unshare(p int) bool {
	if s.shared == nil || s.shared[p] == nil {
		return false
	}
	s.shared[p].Refs--
	s.shared[p] = nil
	return true
}

// rewriteAll prepares a whole-space rewrite (Reset, FillRandom): every KSM
// ref is released and the side table dropped, volatility and the dirty log
// are cleared, and a forked space detaches from its template onto a fresh
// zeroed flat array.
func (s *Space) rewriteAll() {
	for _, g := range s.shared {
		if g != nil {
			g.Refs--
		}
	}
	s.shared = nil
	s.volatile.ClearAll()
	s.dirty.ClearAll()
	s.gen++
	if s.tmpl != nil {
		s.tmpl = nil
		s.chunks = nil
		s.pages = make([]Content, s.npages)
	}
}

// Name returns the space's label.
func (s *Space) Name() string { return s.name }

// NumPages returns the number of pages in the space.
func (s *Space) NumPages() int { return s.npages }

// Read returns the content of page p.
func (s *Space) Read(p int) (Content, error) {
	if p < 0 || p >= s.npages {
		return 0, fmt.Errorf("%w: %s page %d of %d", ErrOutOfRange, s.name, p, s.npages)
	}
	return s.word(p), nil
}

// MustRead is Read for callers that have already validated the index
// (tight loops in KSM scans and migration). It panics on out-of-range.
func (s *Space) MustRead(p int) Content {
	c, err := s.Read(p)
	if err != nil {
		panic(err)
	}
	return c
}

// Write stores c into page p, breaking copy-on-write sharing if the page is
// KSM-merged, and marks the page dirty. It reports what happened so callers
// can charge the appropriate write latency.
func (s *Space) Write(p int, c Content) (WriteResult, error) {
	if p < 0 || p >= s.npages {
		return WriteResult{}, fmt.Errorf("%w: %s page %d of %d", ErrOutOfRange, s.name, p, s.npages)
	}
	return s.write(p, c), nil
}

// write is Write for a bounds-checked page: every per-page effect of a
// write, in the order the write hook observes them.
func (s *Space) write(p int, c Content) WriteResult {
	w := s.wordMut(p)
	s.writes++
	s.gen++
	res := WriteResult{Changed: *w != c}
	// Copy-on-write: a merged page detaches from the shared frame whether
	// or not the new content equals the old — the hardware fault and page
	// copy happen before the store is inspected.
	if s.unshare(p) {
		res.CowBroken = true
		s.cowBreaks++
	}
	*w = c
	s.dirty.Set(p)
	if s.onWrite != nil {
		s.onWrite(p, c)
	}
	return res
}

// plain reports whether a write to s is nothing but a store plus its
// counters and dirty bit: a flat page array, no KSM side table to unshare
// from, no write hook to call. The run kernels take their word-at-a-time
// route only on a plain space and call write page by page otherwise.
func (s *Space) plain() bool {
	return s.pages != nil && s.shared == nil && s.onWrite == nil
}

// WriteRun stores cs[i] into page start+i for every i, with exactly the
// effects of Write on each page in ascending order. The whole run is
// bounds-checked first: a run that does not fit writes nothing.
//
//detlint:hotpath
func (s *Space) WriteRun(start int, cs []Content) error {
	if start < 0 || start > s.npages-len(cs) {
		return fmt.Errorf("%w: %s pages [%d, %d) of %d", ErrOutOfRange, s.name, start, start+len(cs), s.npages)
	}
	if !s.plain() {
		for i, c := range cs {
			s.write(start+i, c)
		}
		return nil
	}
	copy(s.pages[start:], cs)
	s.writes += uint64(len(cs))
	s.gen += uint64(len(cs))
	s.dirty.setRange(start, start+len(cs))
	return nil
}

// isZero is 1 for the zero page and 0 for any other content, without a
// branch: pulled pages mix zero and random contents unpredictably.
func isZero(c Content) uint64 {
	return (uint64(c)|-uint64(c))>>63 ^ 1
}

// Pulled counts what one PullDirty copied.
type Pulled struct {
	// Pages is the number of pages copied: the source's dirty count.
	Pages int
	// Zeros is how many of them were zero pages.
	Zeros int
	// Resent is how many non-zero pages were already marked in the sent
	// bitmap.
	Resent int
}

// PullDirty fetches and clears src's dirty log, as KVM_GET_DIRTY_LOG does,
// and copies every page it named into s, in ascending order and with
// exactly the effects of Write on each. It is one pre-copy round's
// transfer. A non-nil sent bitmap records the pages copied, and pages
// already in it count as Resent unless they are zero pages. src and s, and
// sent if given, must cover the same number of pages.
//
// On a plain destination the copy runs a dirty word at a time: each set
// bit's page is stored, and the word is ORed into s's dirty log and sent.
// A fully set word from a flat source moves its 64 pages with one copy
// and takes the zero mask over the copied words; first rounds and
// compile-rate rounds are almost all such words.
//
//detlint:hotpath
func (s *Space) PullDirty(src *Space, sent *Bitmap) (Pulled, error) {
	var n Pulled
	if src.npages != s.npages {
		return n, fmt.Errorf("mem: pull %s into %s: %d pages, want %d", src.name, s.name, src.npages, s.npages)
	}
	if sent != nil && sent.n != s.npages {
		return n, fmt.Errorf("mem: pull into %s: sent bitmap of %d pages, want %d", s.name, sent.n, s.npages)
	}
	// Fetch-and-clear by taking the whole word array: a write hook that
	// dirties src during the copy starts a fresh log, as it would after
	// the drain it models.
	words := src.dirty.words
	src.dirty.words, src.dirty.set = nil, 0
	for wi, w := range words {
		if w == 0 {
			continue
		}
		words[wi] = 0
		var sw uint64
		if sent != nil {
			sw = sent.orWord(wi, w)
		}
		base := wi * 64
		plain := s.plain()
		var zeros uint64
		if plain && w == ^uint64(0) && src.pages != nil {
			dst := (*[64]Content)(s.pages[base:])
			*dst = *(*[64]Content)(src.pages[base:])
			for b, c := range dst {
				zeros |= isZero(c) << b
			}
		} else {
			for m := w; m != 0; m &= m - 1 {
				b := bits.TrailingZeros64(m)
				c := src.word(base + b)
				if plain {
					s.pages[base+b] = c
				} else {
					s.write(base+b, c)
				}
				zeros |= isZero(c) << b
			}
		}
		if plain {
			k := uint64(bits.OnesCount64(w))
			s.writes += k
			s.gen += k
			s.dirty.orWord(wi, w)
		}
		n.Pages += bits.OnesCount64(w)
		n.Zeros += bits.OnesCount64(zeros)
		n.Resent += bits.OnesCount64(sw & w &^ zeros)
	}
	// Hand the cleared array back unless a write hook re-dirtied src.
	if src.dirty.words == nil {
		src.dirty.words = words
	}
	return n, nil
}

// SetWriteHook installs (or clears, with nil) the write-trap observer.
// Only one hook is supported — matching the single write-protection
// mechanism the MMU offers.
func (s *Space) SetWriteHook(fn func(page int, c Content)) {
	s.onWrite = fn
}

// HasWriteHook reports whether a write trap is installed — visible to
// anyone inspecting the (simulated) hypervisor, which is the paper's point
// that this countermeasure "could be easily detected".
func (s *Space) HasWriteHook() bool { return s.onWrite != nil }

// Scanner returns the KSM daemon the space is registered with, or nil.
func (s *Space) Scanner() any { return s.scanner }

// SetScanner records the KSM daemon the space is registered with (nil
// when it leaves the daemon's scan set). Only the KSM daemon calls this.
func (s *Space) SetScanner(d any) { s.scanner = d }

// MarkVolatile flags page p as too-frequently-changing for KSM to merge.
func (s *Space) MarkVolatile(p int, v bool) error {
	if p < 0 || p >= s.npages {
		return fmt.Errorf("%w: %s page %d", ErrOutOfRange, s.name, p)
	}
	// Skip the no-op case without privatizing a template chunk.
	if s.volatile.Test(p) == v {
		return nil
	}
	// A fork privatizes the page's chunk even though the flag lives in a
	// side table, so ForkStats and MaterializedChunks count every chunk
	// whose page state diverged from the image, flags included.
	s.wordMut(p)
	if v {
		s.volatile.Set(p)
	} else {
		s.volatile.Clear(p)
	}
	s.gen++
	return nil
}

// Shared reports whether page p is currently KSM-merged, and with which
// group.
func (s *Space) Shared(p int) (*SharedGroup, bool) {
	if p < 0 || p >= s.npages || s.shared == nil {
		return nil, false
	}
	g := s.shared[p]
	return g, g != nil
}

// AttachShared points page p at an existing shared group. The page's
// current content must equal the group's content; merging non-identical
// pages would corrupt the guest, so this returns an error instead.
// Only the KSM daemon calls this.
func (s *Space) AttachShared(p int, g *SharedGroup) error {
	if p < 0 || p >= s.npages {
		return fmt.Errorf("%w: %s page %d", ErrOutOfRange, s.name, p)
	}
	if cur, _ := s.Shared(p); cur == g {
		return nil
	}
	// Validate against the read view before privatizing anything.
	if cur := s.word(p); cur != g.Content {
		return fmt.Errorf("mem: attach %s page %d: content %#x != group %#x",
			s.name, p, cur, g.Content)
	}
	// A fork privatizes the page's chunk, as in MarkVolatile.
	s.wordMut(p)
	if s.shared == nil {
		s.shared = make([]*SharedGroup, s.npages)
	}
	s.unshare(p)
	s.shared[p] = g
	g.Refs++
	s.gen++
	return nil
}

// DirtyCount returns the number of pages written since the dirty log was
// last pulled or cleared.
func (s *Space) DirtyCount() int { return s.dirty.Count() }

// ClearDirty resets the dirty log without reading it.
func (s *Space) ClearDirty() { s.dirty.ClearAll() }

// MarkAllDirty flags every page dirty — how pre-copy migration seeds its
// first round ("transfer everything once").
func (s *Space) MarkAllDirty() { s.dirty.SetAll() }

// Stats reports lifetime write counters.
//
//detlint:allow deadcode — test oracle: the COW and snapshot tests count the writes and COW breaks an operation costs
func (s *Space) Stats() (writes, cowBreaks uint64) {
	return s.writes, s.cowBreaks
}

// Reset returns every page to zero, detaching any KSM sharing with proper
// refcount accounting and clearing volatility flags and the dirty log —
// what a machine reset does to RAM contents. A forked space detaches from
// its template: post-reset contents owe nothing to the golden image.
func (s *Space) Reset() {
	if s.tmpl == nil {
		clear(s.pages)
	}
	s.rewriteAll()
}

// Rand is the generator FillRandom and GenerateFile draw from. Both
// *sim.Rand and *rand.Rand satisfy it, and both draw the same pages from
// the same seed.
type Rand interface {
	Float64() float64
	Uint64() uint64
}

// FillRandom populates the space with guest-like contents: zeroFraction of
// the pages stay zero (free memory), the rest get contents drawn from rng
// that are almost surely unique. As in Reset — this models a boot
// repopulating RAM — KSM sharing is detached with proper refcount
// accounting, volatility flags are cleared, and a fork detaches from its
// template. The dirty log is cleared too, so the fill itself doesn't count
// as guest activity.
//
// A *sim.Rand fills in bulk; any other generator takes the per-page loop
// below, which the bulk fill reproduces draw for draw.
func (s *Space) FillRandom(rng Rand, zeroFraction float64) {
	s.rewriteAll()
	if r, ok := rng.(*sim.Rand); ok {
		sim.FillPages(r, s.pages, zeroFraction)
		return
	}
	for i := range s.pages {
		if rng.Float64() < zeroFraction {
			s.pages[i] = ZeroPage
		} else {
			// Avoid drawing the zero value for a "used" page.
			s.pages[i] = Content(rng.Uint64() | 1)
		}
	}
}

// Snapshot copies out the logical contents of every page: savevm's RAM
// image, a template's pages, and the tests' memory-equality checks.
func (s *Space) Snapshot() []Content {
	dst := make([]Content, s.npages)
	if s.pages != nil {
		copy(dst, s.pages)
		return dst
	}
	copy(dst, s.tmpl.pages)
	for ci, ch := range s.chunks {
		copy(dst[ci<<chunkShift:], ch)
	}
	return dst
}

// Fingerprint hashes the first n pages of the space (clamped to its size).
// The low pages of guest RAM hold the kernel image, so this models the
// OS fingerprint a VMI tool would derive; both the fingerprint baseline
// detector and the attacker's impersonation use it.
func Fingerprint(s *Space, n int) uint64 {
	if n > s.NumPages() {
		n = s.NumPages()
	}
	h := uint64(fnvOffset64)
	for p := 0; p < n; p++ {
		c := uint64(s.MustRead(p))
		for i := 0; i < 8; i++ {
			h ^= c & 0xff
			h *= fnvPrime64
			c >>= 8
		}
	}
	return h
}

// pageSig is the per-page contribution to a space's content hash: a
// splitmix64-style mix of (index, logical content). Zero pages contribute
// nothing, so an untouched space hashes to 0.
func pageSig(p int, c Content) uint64 {
	if c == ZeroPage {
		return 0
	}
	x := uint64(p)*0x9E3779B97F4A7C15 + uint64(c)
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	return x ^ x>>31
}

// RangeHash digests the logical contents of pages [from, from+n), clamping
// the range to the space. It is the primitive an invariant-checksum
// detector audits pinned regions with: equal logical contents of the range
// guarantee equal hashes, and — unlike Fingerprint — it composes with the
// per-page pageSig the full-space ContentHash uses, so a range covering the
// whole space reproduces ContentHash exactly.
func (s *Space) RangeHash(from, n int) uint64 {
	if from < 0 {
		n += from
		from = 0
	}
	if from+n > s.npages {
		n = s.npages - from
	}
	h := uint64(0)
	for p := from; p < from+n; p++ {
		h ^= pageSig(p, s.word(p))
	}
	return h
}

// ContentHash returns the space's content digest, RangeHash over the whole
// space. Equal logical contents guarantee equal hashes; differing hashes
// guarantee differing contents. Hash equality alone does not prove content
// equality (use EqualContents, which verifies). The digest is computed on
// demand, one pass over the pages per call.
func (s *Space) ContentHash() uint64 { return s.RangeHash(0, s.npages) }

// Generation returns the space's mutation generation. It never decreases,
// and it is unchanged between two calls only if no page's content, sharing
// or volatility changed in between.
func (s *Space) Generation() uint64 { return s.gen }

// PageInfo returns page p's logical content together with its shared and
// volatile flags in one bounds-checked lookup — the batched read the KSM
// scan loop runs on instead of three error-path accessors per page.
// Out-of-range pages read as a zero, unshared, non-volatile page.
func (s *Space) PageInfo(p int) (c Content, shared, volatile bool) {
	if p < 0 || p >= s.npages {
		return ZeroPage, false, false
	}
	return s.word(p), s.shared != nil && s.shared[p] != nil, s.volatile.Test(p)
}

// EqualContents reports whether two spaces hold identical logical contents,
// comparing page by page.
//
//detlint:allow deadcode — test oracle: the mem and migrate tests compare a copy with its source through it
func EqualContents(a, b *Space) bool {
	if a.npages != b.npages {
		return false
	}
	for p := 0; p < a.npages; p++ {
		if a.word(p) != b.word(p) {
			return false
		}
	}
	return true
}
