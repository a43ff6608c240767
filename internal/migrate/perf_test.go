package migrate

import (
	"math/rand"
	"runtime"
	"testing"

	"cloudskulk/internal/mem"
)

// TestPreCopyAllocatesNoPageBuffers: a pre-copy migration of a booted
// 1 GiB idle guest with XBZRLE on allocates less than one byte per guest
// page in all. The dirty logs and the sent set are bitmaps, one bit per
// page, and no round harvests page numbers into a buffer.
func TestPreCopyAllocatesNoPageBuffers(t *testing.T) {
	tb := newTestbed(t, 1)
	tb.me.Tunables.XBZRLE = true
	src := tb.vm(t, "src", 1024, "")
	src.RAM().FillRandom(rand.New(rand.NewSource(1)), 0.3)
	tb.vm(t, "dst", 1024, "tcp:0.0.0.0:4444")
	tk := dirtier(tb, src, 4)
	defer tk.Stop()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := tb.me.Migrate(src, "tcp:127.0.0.1:4444")
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	res, _ := tb.me.LastResult()
	pages := uint64(src.RAM().NumPages())
	if alloc := after.TotalAlloc - before.TotalAlloc; res.Iterations < 3 || alloc >= pages {
		t.Fatalf("%d rounds allocated %d bytes for %d pages, want at least 3 rounds and under 1 byte per page",
			res.Iterations, alloc, pages)
	}
}

// BenchmarkPreCopyRound is one pre-copy round's transfer between two 1 GiB
// guests with Fig. 4's tunables: "first" is round one, every page dirty,
// on a booted guest with 30% zero pages; "compile" re-sends the 8,192
// pages a kernel-compile guest dirties in one second, written by the op
// as one run just before the pull.
func BenchmarkPreCopyRound(b *testing.B) {
	const gib = 1 << 30
	for _, bc := range []struct {
		name string
		run  int
	}{{"first", 0}, {"compile", 8192}} {
		b.Run(bc.name, func(b *testing.B) {
			e := &Engine{Tunables: DefaultTunables()}
			rng := rand.New(rand.NewSource(1))
			src := mem.NewSpace("src", gib)
			src.FillRandom(rng, 0.3)
			dst := mem.NewSpace("dst", gib)
			run := make([]mem.Content, bc.run)
			for i := range run {
				run[i] = mem.Content(rng.Uint64() | 1)
			}
			ws := src.NumPages() / 2
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if bc.run == 0 {
					src.MarkAllDirty()
				} else if err := src.WriteRun(i*bc.run%(ws-bc.run), run); err != nil {
					b.Fatal(err)
				}
				if _, _, err := e.pull(src, dst, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
