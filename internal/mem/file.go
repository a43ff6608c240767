package mem

import (
	"fmt"
	"strconv"
)

// File is an in-memory file image: a named sequence of page contents. The
// detection protocol loads the same file ("File-A", e.g. a random mp3) into
// L0 and into the guest and relies on its pages being globally unique.
type File struct {
	Name  string
	Pages []Content
}

// GenerateFile builds a file of n pages whose contents are derived from the
// name and a nonce drawn from rng, so every page is unique with overwhelming
// probability — the paper's requirement that "no identical pages also exist
// in the memory". Page i is the 64-bit FNV-1a hash of "name/nonce/i/0",
// with 0 mapped to 1; the "name/nonce/" prefix is hashed once per file.
func GenerateFile(rng Rand, name string, n int) *File {
	nonce := rng.Uint64()
	f := &File{
		Name:  name,
		Pages: make([]Content, n),
	}
	h := fileHash(name, nonce)
	for i := range f.Pages {
		f.Pages[i] = pageHash(h, i)
	}
	return f
}

// Mutated returns a copy of the file with every page's content slightly
// changed — the paper's "File-A-v2", produced by changing one byte in each
// page. Calling Mutated again on the result yields a further version.
func (f *File) Mutated() *File {
	v2 := &File{
		Name:  f.Name + ".v2",
		Pages: make([]Content, len(f.Pages)),
	}
	for i, c := range f.Pages {
		v2.Pages[i] = MutateContent(c)
	}
	return v2
}

// Slice returns a sub-file view of n pages starting at page `from`
// (clamped to the file). The returned file shares no backing with the
// original.
func (f *File) Slice(from, n int) *File {
	if from < 0 {
		from = 0
	}
	if from > len(f.Pages) {
		from = len(f.Pages)
	}
	if from+n > len(f.Pages) {
		n = len(f.Pages) - from
	}
	out := &File{
		Name:  fmt.Sprintf("%s[%d:%d]", f.Name, from, from+n),
		Pages: append([]Content(nil), f.Pages[from:from+n]...),
	}
	return out
}

// NumPages returns the file's length in pages.
func (f *File) NumPages() int { return len(f.Pages) }

// SizeBytes returns the file's size in bytes.
func (f *File) SizeBytes() int64 { return int64(len(f.Pages)) * PageSize }

// LoadFile writes the file's pages into the space starting at page `at`,
// without recording them in the dirty log (loading a file into the page
// cache is not guest write traffic for migration purposes). It returns an
// error if the file does not fit.
func (s *Space) LoadFile(f *File, at int) error {
	if at < 0 || at+len(f.Pages) > s.npages {
		return fmt.Errorf("%w: load %q (%d pages) at %d into %s (%d pages)",
			ErrOutOfRange, f.Name, len(f.Pages), at, s.name, s.npages)
	}
	for i, c := range f.Pages {
		*s.wordMut(at + i) = c
		s.unshare(at + i)
	}
	s.gen++
	return nil
}

// FileResident reports how many of the file's pages are present (with
// matching contents) at the given offset in the space.
func (s *Space) FileResident(f *File, at int) int {
	n := 0
	for i, c := range f.Pages {
		p := at + i
		if p < 0 || p >= s.npages {
			continue
		}
		if got, err := s.Read(p); err == nil && got == c {
			n++
		}
	}
	return n
}

// FNV-1a parameters of the file page hash and Fingerprint.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fileHash is the FNV-1a state after "name/nonce/", the prefix every page
// key of one file shares.
func fileHash(name string, nonce uint64) uint64 {
	h := uint64(fnvOffset64)
	for i := 0; i < len(name); i++ {
		h = (h ^ uint64(name[i])) * fnvPrime64
	}
	var buf [22]byte // "/" + 20 digits + "/"
	b := append(buf[:0], '/')
	b = strconv.AppendUint(b, nonce, 10)
	b = append(b, '/')
	for _, c := range b {
		h = (h ^ uint64(c)) * fnvPrime64
	}
	return h
}

// pageHash finishes page `page`'s key "page/0" from a file's fileHash state,
// mapping 0 to 1. The trailing "/0" is part of the format the goldens pin.
func pageHash(h uint64, page int) Content {
	var buf [22]byte // sign and 19 digits + "/0"
	b := strconv.AppendInt(buf[:0], int64(page), 10)
	b = append(b, "/0"...)
	for _, c := range b {
		h = (h ^ uint64(c)) * fnvPrime64
	}
	if h == uint64(ZeroPage) {
		return 1
	}
	return Content(h)
}

// MutateContent derives the "one byte changed" version of a page content:
// deterministic, never the identity, never zero, and not involutive
// (mutating twice does not restore the original).
func MutateContent(c Content) Content {
	m := (c ^ 0x9e3779b97f4a7c15) * 0x2545f4914f6cdd1d
	if m == ZeroPage {
		m = 1
	}
	if m == c {
		m++
	}
	return m
}
