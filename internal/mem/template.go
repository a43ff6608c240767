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

// Name returns the template's label.
func (t *Template) Name() string { return t.name }

// NumPages returns the number of pages in the template image.
func (t *Template) NumPages() int { return len(t.pages) }

// SizeBytes returns the modelled size of the template image.
func (t *Template) SizeBytes() int64 { return int64(len(t.pages)) * PageSize }

// ContentHash returns the template image's content digest — the hash every
// space spawned from it starts with.
func (t *Template) ContentHash() uint64 { return t.hash }

// Read returns the logical content of template page p. Cross-shard
// migration uses it to express a guest's memory as a delta against the
// golden image.
func (t *Template) Read(p int) (Content, error) {
	if p < 0 || p >= len(t.pages) {
		return 0, fmt.Errorf("%w: template %s page %d of %d", ErrOutOfRange, t.name, p, len(t.pages))
	}
	return t.pages[p], nil
}

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
		dirty:    NewBitmap(n),
	}
}

// Forked reports whether the space still reads through a template (it was
// spawned with SpawnFrom and has not been reset or wholly rewritten since).
func (s *Space) Forked() bool { return s.tmpl != nil }

// Template returns the golden image a forked space reads through, or nil
// for a standalone space.
func (s *Space) Template() *Template { return s.tmpl }

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
