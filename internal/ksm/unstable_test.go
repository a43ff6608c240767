package ksm

import (
	"fmt"
	"math/bits"
	"testing"

	"cloudskulk/internal/mem"
)

// wrapKeys returns n keys whose home slots in a table of minCandSlots are
// its last four slots or its first, so their probe runs wrap the end of
// the slot array. Doubling keeps them at the end: a home's top bits stay.
func wrapKeys(n int) []mem.Content {
	t := candTable{shift: uint(64 - bits.TrailingZeros(minCandSlots))}
	var keys []mem.Content
	for k := mem.Content(0); len(keys) < n; k++ {
		if h := t.home(k); h >= minCandSlots-4 || h == 0 {
			keys = append(keys, k)
		}
	}
	return keys
}

// compareTable returns the first difference between t and the reference
// map, or t's first structural fault.
func compareTable(t *candTable, ref map[mem.Content]candSlot) error {
	if err := t.check(); err != nil {
		return err
	}
	if t.n != len(ref) {
		return fmt.Errorf("%d entries, want %d", t.n, len(ref))
	}
	for k, want := range ref {
		i, ok := t.find(k)
		if !ok {
			return fmt.Errorf("%#x not found", uint64(k))
		}
		if t.slots[i] != want {
			return fmt.Errorf("slot for %#x = %+v, want %+v", uint64(k), t.slots[i], want)
		}
	}
	return nil
}

// TestCandTableDeleteWrappedRunHead: deleting the first entry of a probe
// run that wraps the array end shifts the rest of the run back across the
// wrap, and every other key is still found.
func TestCandTableDeleteWrappedRunHead(t *testing.T) {
	var tab candTable
	ref := map[mem.Content]candSlot{}
	for i, k := range wrapKeys(12) {
		j, ok := tab.find(k)
		if ok {
			t.Fatalf("fresh key %#x found", uint64(k))
		}
		e := candSlot{key: k, rid: 1, page: uint32(i)}
		tab.insert(j, e)
		ref[k] = e
	}
	last := len(tab.slots) - 1
	if tab.slots[last].rid == 0 || tab.slots[0].rid == 0 {
		t.Fatal("setup: the run does not wrap the array end")
	}
	head := last
	for tab.slots[head-1].rid != 0 {
		head--
	}
	delete(ref, tab.slots[head].key)
	tab.del(head)
	if err := compareTable(&tab, ref); err != nil {
		t.Fatal(err)
	}
	// And the entry now in the array's first slot, inside the wrap.
	delete(ref, tab.slots[0].key)
	tab.del(0)
	if err := compareTable(&tab, ref); err != nil {
		t.Fatal(err)
	}
}

// TestCandTableCheckCatchesCorruption: each structural fault check names,
// made by hand, is reported.
func TestCandTableCheckCatchesCorruption(t *testing.T) {
	build := func() *candTable {
		tab := &candTable{}
		for i, k := range wrapKeys(6) {
			j, _ := tab.find(k)
			tab.insert(j, candSlot{key: k, rid: 1, page: uint32(i)})
		}
		if err := tab.check(); err != nil {
			t.Fatal(err)
		}
		return tab
	}
	// empty returns an empty slot whose predecessor is empty too and which
	// is not key's home: an entry moved there is cut off from its home.
	empty := func(tab *candTable, key mem.Content) int {
		for j := 1; j < len(tab.slots); j++ {
			if tab.slots[j].rid == 0 && tab.slots[j-1].rid == 0 && j != tab.home(key) {
				return j
			}
		}
		t.Fatal("no empty slot")
		return 0
	}

	tab := build()
	tab.n++
	if tab.check() == nil {
		t.Error("count off by one not reported")
	}

	tab = build()
	i, _ := tab.find(wrapKeys(1)[0])
	j := empty(tab, tab.slots[i].key)
	tab.slots[j], tab.slots[i] = tab.slots[i], candSlot{}
	if tab.check() == nil {
		t.Error("entry cut off from its home slot not reported")
	}

	tab = build()
	i, _ = tab.find(wrapKeys(1)[0])
	for j = i; tab.slots[j].rid != 0; {
		j = (j + 1) & (len(tab.slots) - 1)
	}
	tab.slots[j] = tab.slots[i] // a reachable second copy at the run's end
	tab.n++
	if tab.check() == nil {
		t.Error("key held twice not reported")
	}

	tab = build()
	for k := mem.Content(1 << 50); 4*tab.n <= 3*len(tab.slots); k++ {
		if j, ok := tab.find(k); !ok {
			tab.slots[j] = candSlot{key: k, rid: 1}
			tab.n++
		}
	}
	if tab.check() == nil {
		t.Error("load past 3/4 not reported")
	}
}

// FuzzCandTableMatchesMap drives the table and a Go map through the same
// inserts, replacements, finds, deletes and per-region drops, and after
// every operation demands the same entries and a well-formed table. Keys
// come from a 16-key alphabet homed at the array's wrap point, so runs
// cross the end at the minimum size; op 5 inserts fresh keys in bulk, which
// grows the table (twice at most, to keep each run fast).
func FuzzCandTableMatchesMap(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 1, 2, 0, 2, 3, 3, 0, 0, 2, 1, 0, 4, 0, 1})
	f.Add([]byte{0, 0, 1, 0, 1, 1, 0, 2, 2, 0, 3, 1, 0, 4, 2, 4, 1, 0, 3, 2, 0, 2, 1, 0})
	f.Add([]byte{0, 3, 1, 0, 4, 1, 5, 0, 200, 5, 0, 200, 0, 5, 2, 5, 0, 200, 3, 3, 0, 4, 1, 0, 5, 0, 255})
	// One wrapped run of a single region, dropped: each deletion shifts the
	// next entry of the region into the slot just emptied.
	f.Add([]byte{0, 0, 0, 0, 1, 0, 0, 2, 0, 0, 3, 0, 0, 4, 0, 0, 5, 0, 0, 6, 0, 0, 7, 0, 4, 0, 0})
	// The same run shared by two regions, dropped one after the other.
	f.Add([]byte{0, 0, 0, 0, 1, 1, 0, 2, 0, 0, 3, 1, 0, 4, 0, 0, 5, 1, 0, 6, 0, 4, 0, 0, 4, 0, 1})
	keys := wrapKeys(16)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 3*256 {
			data = data[:3*256]
		}
		var tab candTable
		ref := map[mem.Content]candSlot{}
		fresh := mem.Content(1 << 40)
		for n := 0; n+3 <= len(data); n += 3 {
			op, key, arg := data[n]%6, keys[int(data[n+1])%len(keys)], data[n+2]
			rid := 1 + uint32(arg%3)
			i, ok := tab.find(key)
			if _, want := ref[key]; ok != want {
				t.Fatalf("op %d: find(%#x) = %v, want %v", n/3, uint64(key), ok, want)
			}
			switch op {
			case 0: // insert, as the daemon does: only when absent
				if !ok {
					e := candSlot{key: key, rid: rid, page: uint32(arg)}
					tab.insert(i, e)
					ref[key] = e
				}
			case 1: // replace the holder
				if ok {
					tab.slots[i].rid, tab.slots[i].page = rid, uint32(arg)
					ref[key] = tab.slots[i]
				}
			case 2: // find only
			case 3:
				if ok {
					tab.del(i)
					delete(ref, key)
				}
			case 4: // drop a region
				want := 0
				for k, e := range ref {
					if e.rid == rid {
						delete(ref, k)
						want++
					}
				}
				if got := tab.sweep(rid); got != want {
					t.Fatalf("op %d: sweep(%d) deleted %d, want %d", n/3, rid, got, want)
				}
			case 5: // bulk insert of fresh keys, up to two doublings
				for j := 0; j < int(arg) && tab.n < 2*minCandSlots; j++ {
					e := candSlot{key: fresh, rid: rid, page: uint32(j)}
					fresh += 0x1000193
					k, _ := tab.find(e.key)
					tab.insert(k, e)
					ref[e.key] = e
				}
			}
			if err := compareTable(&tab, ref); err != nil {
				t.Fatalf("after op %d %v: %v", n/3, data[n:n+3], err)
			}
		}
	})
}
