package ksm

import (
	"fmt"
	"math/bits"

	"cloudskulk/internal/mem"
)

// candTable is the unstable tree: for each content waiting for a partner,
// the page that held it when its entry was written. It is an open-addressing
// hash table of 16-byte slots that hold no pointers, so the garbage
// collector never scans it. A key's home slot is the top bits of a
// multiplicative hash (file-loaded content need not be uniform); probing
// is linear, and a deletion shifts the rest of its probe run back, so
// there are no tombstones. The table is nil until the first insert, then
// starts at minCandSlots and doubles when an insert would take it past
// 3/4 full.
//
// No iteration order reaches the daemon's behaviour: entries are found,
// replaced and deleted by key, and the one walk over the slots (sweep)
// only deletes.
type candTable struct {
	slots []candSlot // a power of two long, or nil
	n     int        // occupied slots
	shift uint       // 64 − log2(len(slots)): the hash bits that pick a home
}

// candSlot is one entry: page `page` of the region whose id is rid−1 held
// key when the entry was written. rid 0 marks an empty slot, because every
// content, 0 included, is a key.
type candSlot struct {
	key  mem.Content
	rid  uint32
	page uint32
}

const (
	// minCandSlots is the table's first size: 16 KiB.
	minCandSlots = 1024
	// candHashMul is 2⁶⁴/φ, the Fibonacci hashing multiplier; the top bits
	// of key·candHashMul depend on every bit of the key.
	candHashMul = 0x9e3779b97f4a7c15
)

// home returns key's home slot.
func (t *candTable) home(key mem.Content) int {
	return int(uint64(key) * candHashMul >> t.shift)
}

// find returns the slot holding key and true, or the empty slot that ends
// key's probe run and false (0 and false on a table never inserted into).
//
//detlint:hotpath
func (t *candTable) find(key mem.Content) (int, bool) {
	if t.slots == nil {
		return 0, false
	}
	mask := len(t.slots) - 1
	for i := t.home(key); ; i = (i + 1) & mask {
		if s := &t.slots[i]; s.rid == 0 || s.key == key {
			return i, s.rid != 0
		}
	}
}

// insert stores e in slot i, which find just returned for e.key with
// false, growing the table first if it would pass 3/4 full.
//
//detlint:hotpath
func (t *candTable) insert(i int, e candSlot) {
	if 4*(t.n+1) > 3*len(t.slots) {
		t.grow()
		i, _ = t.find(e.key)
	}
	t.slots[i] = e
	t.n++
}

// grow doubles the table, or allocates its first minCandSlots, and
// reinserts every entry.
func (t *candTable) grow() {
	old := t.slots
	size := max(2*len(old), minCandSlots)
	t.slots = make([]candSlot, size)
	t.shift = uint(64 - bits.TrailingZeros(uint(size)))
	mask := size - 1
	for _, e := range old {
		if e.rid == 0 {
			continue
		}
		i := t.home(e.key)
		for t.slots[i].rid != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = e
	}
}

// del empties slot i. Each later entry of the probe run whose home does
// not lie cyclically in (hole, its slot] moves back into the hole, so every
// entry stays reachable from its home without a tombstone.
//
//detlint:hotpath
func (t *candTable) del(i int) {
	mask := len(t.slots) - 1
	for j := (i + 1) & mask; t.slots[j].rid != 0; j = (j + 1) & mask {
		if (j-t.home(t.slots[j].key))&mask >= (j-i)&mask {
			t.slots[i] = t.slots[j]
			i = j
		}
	}
	t.slots[i] = candSlot{}
	t.n--
}

// sweep deletes every entry naming rid and returns how many it deleted. A
// deletion moves entries only backwards along the rest of its probe run:
// into the slot it emptied, which the walk re-checks; between slots the
// walk has yet to reach; or, where the run wraps past the end, between
// slots at the start that the walk has already cleared of rid.
func (t *candTable) sweep(rid uint32) int {
	n := 0
	for i := 0; i < len(t.slots); {
		if t.slots[i].rid != rid {
			i++
			continue
		}
		t.del(i)
		n++
	}
	return n
}

// check returns the table's first structural fault, or nil: a size that is
// not a power of two of at least minCandSlots (or a shift that does not
// match it), a count that is not the number of occupied slots, an entry
// not reachable from its home slot, a key held twice, or a load past 3/4.
func (t *candTable) check() error {
	if t.slots == nil {
		if t.n != 0 {
			return fmt.Errorf("ksm: empty unstable tree counts %d entries", t.n)
		}
		return nil
	}
	size := len(t.slots)
	if size < minCandSlots || size&(size-1) != 0 || t.shift != uint(64-bits.TrailingZeros(uint(size))) {
		return fmt.Errorf("ksm: unstable tree has %d slots and shift %d", size, t.shift)
	}
	mask := size - 1
	n := 0
	for i, e := range t.slots {
		if e.rid == 0 {
			continue
		}
		n++
		for j := t.home(e.key); j != i; j = (j + 1) & mask {
			if t.slots[j].rid == 0 {
				return fmt.Errorf("ksm: unstable-tree entry for %#x in slot %d is cut off from its home slot %d by empty slot %d",
					uint64(e.key), i, t.home(e.key), j)
			}
			if t.slots[j].key == e.key {
				return fmt.Errorf("ksm: unstable tree holds %#x in slots %d and %d", uint64(e.key), j, i)
			}
		}
	}
	if n != t.n {
		return fmt.Errorf("ksm: unstable tree counts %d entries but %d slots are occupied", t.n, n)
	}
	if 4*n > 3*size {
		return fmt.Errorf("ksm: unstable tree holds %d entries in %d slots, past 3/4", n, size)
	}
	return nil
}
