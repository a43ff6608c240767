package shard

import (
	"runtime"
	"testing"
	"time"

	"cloudskulk/internal/vnet"
)

// cellConfig is one megastorm cell: 16 hosts of 100 guests, each a fork
// of a 128 MB golden image.
func cellConfig(shards int) GridConfig {
	return GridConfig{
		Shards:        shards,
		HostsPerShard: 16,
		GuestsPerHost: 100,
		GuestMemMB:    128,
		Seed:          1,
		Workers:       1,
		InterShard:    vnet.LinkSpec{Bandwidth: 1250 << 20, Latency: 2 * time.Millisecond},
	}
}

// heapNow returns the live heap after a full collection.
func heapNow() (bytes, objects uint64) {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc, ms.HeapObjects
}

// Ceilings on what one template guest keeps alive after Provision, across
// every layer it touches: the plane's job and record, the fleet record,
// the VM and its config, the forked space, the vCPU, the NIC endpoint and
// forward, the QEMU process row, the KSM region and the job's span.
const (
	guestBytesCeiling   = 2400
	guestObjectsCeiling = 23
)

// TestTemplateGuestFootprint provisions one megastorm cell through its
// control plane and pins the live bytes and objects per guest, measured
// from the heap after NewGrid to the heap after Provision.
func TestTemplateGuestFootprint(t *testing.T) {
	g, err := NewGrid(cellConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	b0, o0 := heapNow()
	if _, err := g.Provision("acme"); err != nil {
		t.Fatal(err)
	}
	b1, o1 := heapNow()
	guests := g.Stats().Guests
	if guests < 1000 {
		t.Fatalf("provisioned %d guests, want at least 1000", guests)
	}
	perBytes := float64(int64(b1)-int64(b0)) / float64(guests)
	perObjects := float64(int64(o1)-int64(o0)) / float64(guests)
	t.Logf("%d guests: %.0f B and %.1f live objects per guest", guests, perBytes, perObjects)
	if perBytes > guestBytesCeiling || perObjects > guestObjectsCeiling {
		t.Fatalf("a template guest keeps %.0f B in %.1f objects alive, ceiling %d B in %d",
			perBytes, perObjects, guestBytesCeiling, guestObjectsCeiling)
	}
	runtime.KeepAlive(g)
}

// BenchmarkGridProvision provisions one megastorm cell (1,600 template
// guests through the control plane) per op; the grid is built off the
// clock.
func BenchmarkGridProvision(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		g, err := NewGrid(cellConfig(1))
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := g.Provision("acme"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMigrateOut is one cross-shard migration's source half: the
// guest wrote 16 pages, and migrateOut diffs it against the golden image,
// stops it and sends the delta. Each op moves the next guest of a
// provisioned two-cell grid, and the grid is rebuilt off the clock when
// the cell runs out of guests.
func BenchmarkMigrateOut(b *testing.B) {
	var g *Grid
	var src *Cell
	var names []string
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k := i % 1600
		if k == 0 {
			b.StopTimer()
			var err error
			if g, err = NewGrid(cellConfig(2)); err != nil {
				b.Fatal(err)
			}
			if _, err := g.Provision("acme"); err != nil {
				b.Fatal(err)
			}
			src = g.Cell(0)
			names = src.Fleet.GuestNames()
			for _, name := range names {
				info, err := src.Fleet.Lookup(name)
				if err != nil {
					b.Fatal(err)
				}
				ram := info.Outer.RAM()
				for p := ram.NumPages() / 2; p < ram.NumPages()/2+16; p++ {
					if _, err := ram.Write(p, 0xBEEF); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.StartTimer()
		}
		src.migrateOut(1, names[k])
		if src.err != nil {
			b.Fatal(src.err)
		}
	}
}
