package main

import (
	"crypto/sha256"
	"time"
)

// refNominalS is the reference work's time on a host of nominal speed. Unit
// and set-up times are reported scaled to that host: a time t measured while
// the reference took r seconds is reported as t × refNominalS / r.
const refNominalS = 0.05

// hostRef is a fixed amount of CPU and memory work, timed in the parent
// process right before each request to a child, to measure how fast the
// host runs at that moment. On a shared virtual machine the speed of the
// same program moves by a third between stretches of minutes with the
// neighbours' load, in step for every workload and for this work, so
// scaling by it removes most of that drift. The work uses only the standard
// library, so no change to the program under test can change its time.
type hostRef struct {
	buf   []byte   // 32 MiB: random access into it misses the caches
	table []uint64 // 1 MiB of counters, indexed at random
	sink  uint64   // keeps the work observable
}

func newHostRef() *hostRef {
	r := &hostRef{buf: make([]byte, 32<<20), table: make([]uint64, 1<<17)}
	r.work() // fault the buffers in outside any timing
	return r
}

// time runs the reference work once and returns its wall seconds.
func (r *hostRef) time() float64 {
	start := time.Now()
	r.work()
	return time.Since(start).Seconds()
}

func (r *hostRef) work() {
	x := uint64(88172645463325252) // xorshift64 state: the same accesses every time
	var acc uint64
	mask := uint64(len(r.table) - 1)
	for i := 0; i < 1_200_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := x % uint64(len(r.buf))
		r.buf[j]++
		acc += uint64(r.buf[(j*7)%uint64(len(r.buf))])
		r.table[(x>>20)&mask] += acc
	}
	sum := sha256.Sum256(r.buf[:16<<20])
	r.sink += acc + uint64(sum[0])
}

// scaled returns t measured while the reference took refS, at nominal
// host speed.
func scaled(t, refS float64) float64 { return t * ratio(refNominalS, refS) }
