package runner

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
)

// cpuCell burns a deterministic amount of CPU, standing in for one
// simulation cell.
func cpuCell(seed int64) uint64 {
	rng := rand.New(rand.NewSource(seed))
	var acc uint64
	for i := 0; i < 200_000; i++ {
		acc ^= rng.Uint64()
	}
	return acc
}

// BenchmarkMapWorkers measures sweep wall-clock against worker count; on a
// multi-core machine ns/op should fall near-linearly until the pool covers
// the cores.
func BenchmarkMapWorkers(b *testing.B) {
	const cells = 32
	counts := []int{1, 2, 4, runtime.GOMAXPROCS(0)}
	for _, workers := range counts {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, err := Map(cells, Options{Workers: workers},
					func(i int) (uint64, error) {
						return cpuCell(CellSeed(1, i)), nil
					})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
