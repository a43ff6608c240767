package mem

import "fmt"

// Template is a frozen golden memory image that spaces fork from. Freezing
// resolves KSM sharing down to plain logical contents and drops volatility
// flags, so the template is immutable, self-contained, and safe to read
// from any number of forked spaces. A template is never written again;
// SpawnFrom spaces privatize chunks away from it on first write.
//
// The template records its content hash at Freeze. A forked space hashes
// its own read view (template pages overlaid with its private chunks), so
// ContentHash, EqualContents and RangeHash behave identically on forked
// and standalone spaces.
type Template struct {
	name   string
	pages  []Content
	hash   uint64
	spawns uint64
}

// Freeze captures the space's current logical contents as a Template. The
// source space is unaffected (it keeps its sharing and volatility state);
// the copy is O(pages), paid once per golden image rather than once per
// guest. The template's pages carry no shared groups and no volatile flags.
func Freeze(name string, src *Space) *Template {
	return &Template{
		name:  name,
		pages: src.Snapshot(),
		hash:  src.ContentHash(),
	}
}

// Handle returns another template over t's frozen pages: the same image
// and content hash under its own name and spawn counter. Handles share the
// page array read-only, so one golden image can back many owners that each
// count their own forks without touching a common counter.
func (t *Template) Handle(name string) *Template {
	return &Template{name: name, pages: t.pages, hash: t.hash}
}

// sameImage reports whether t and u read the same frozen page array: one
// is a Handle of the other, or both are handles of one template.
func (t *Template) sameImage(u *Template) bool {
	return len(t.pages) == len(u.pages) && (len(t.pages) == 0 || &t.pages[0] == &u.pages[0])
}

// Name returns the template's label.
func (t *Template) Name() string { return t.name }

// NumPages returns the number of pages in the template image.
func (t *Template) NumPages() int { return len(t.pages) }

// SizeBytes returns the modelled size of the template image.
func (t *Template) SizeBytes() int64 { return int64(len(t.pages)) * PageSize }

// ContentHash returns the template image's content digest — the hash every
// space spawned from it starts with.
func (t *Template) ContentHash() uint64 { return t.hash }

// Spawns returns how many spaces have been forked from this template.
func (t *Template) Spawns() uint64 { return t.spawns }

// SpawnFrom forks a new space from a template in O(1) time and O(chunks)
// index storage — no page contents are copied until the space is written.
// The spawned space reads through the template and has a clean (and
// storage-free) dirty log.
func SpawnFrom(name string, t *Template) *Space {
	t.spawns++
	n := len(t.pages)
	// No chunk index, no side tables, no bitmap words: all materialize on
	// first use, so a spawn's cost is one fixed-size struct regardless of n.
	return &Space{
		name:     name,
		npages:   n,
		tmpl:     t,
		volatile: Bitmap{n: n},
		dirty:    Bitmap{n: n},
	}
}

// Forked reports whether the space still reads through a template (it was
// spawned with SpawnFrom and has not been reset or wholly rewritten since).
func (s *Space) Forked() bool { return s.tmpl != nil }

// MaterializedChunks returns how many chunks a forked space has privatized
// from its template. Standalone spaces report 0.
func (s *Space) MaterializedChunks() int {
	n := 0
	for _, ch := range s.chunks {
		if ch != nil {
			n++
		}
	}
	return n
}

// ForkStats reports the lifetime count of chunk privatizations — the cost
// actually paid for copy-on-write, which the megastorm experiment surfaces
// as "materialized MiB per guest".
func (s *Space) ForkStats() (chunkCopies uint64) { return s.forkCopies }

// DeltaFrom appends to pages and data, in ascending page order, every page
// whose logical content differs from template t's, and returns both
// slices — a guest's memory expressed as a delta against a golden image,
// which cross-shard migration ships instead of the image. t must have as
// many pages as s.
//
// A space that reads through t, or through a handle over the same pages,
// can differ from it only inside its materialized chunks, so only those are
// compared: the cost follows what the guest wrote, not its size. Any other
// space — standalone, detached by Reset or FillRandom, or forked from
// another image — is compared page by page.
func (s *Space) DeltaFrom(t *Template, pages []int, data []Content) ([]int, []Content, error) {
	if s.npages != len(t.pages) {
		return pages, data, fmt.Errorf("mem: delta of %s against template %s: %d pages, template has %d",
			s.name, t.name, s.npages, len(t.pages))
	}
	if s.tmpl != nil && s.tmpl.sameImage(t) {
		pages, data = s.chunkDelta(t.pages, pages, data)
		return pages, data, nil
	}
	for p, want := range t.pages {
		if c := s.word(p); c != want {
			pages = append(pages, p)
			data = append(data, c)
		}
	}
	return pages, data, nil
}

// chunkDelta is DeltaFrom's walk over a fork's materialized chunks, against
// img, the page array the fork reads through.
//
//detlint:hotpath
func (s *Space) chunkDelta(img []Content, pages []int, data []Content) ([]int, []Content) {
	for ci, ch := range s.chunks {
		if ch == nil {
			continue
		}
		base := ci << chunkShift
		orig := img[base : base+len(ch)]
		for i, c := range ch {
			if c != orig[i] {
				pages = append(pages, base+i)
				data = append(data, c)
			}
		}
	}
	return pages, data
}
