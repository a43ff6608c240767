// Package runner executes independent simulation cells across a bounded
// goroutine worker pool.
//
// The experiment harness decomposes every sweep into cells — one
// (config × run) simulation each, owning its own sim.Engine — so cells
// share no mutable state and can execute in any order on any number of
// workers. The runner preserves three guarantees the harness depends on:
//
//   - Determinism: a cell's randomness comes only from its seed, derived
//     as CellSeed(rootSeed, cellIndex) (or from the caller's own stable
//     rule). Worker count and scheduling order therefore never change any
//     cell's result.
//   - Ordering: results are collected into a slice indexed by cell, so
//     the assembled output is byte-identical to a serial left-to-right
//     run.
//   - Containment: a panicking cell is recovered into a *CellError
//     (wrapping ErrCellFailed) instead of killing the whole sweep; the
//     remaining cells still run and the joined error reports every
//     failure in cell order.
package runner

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"
)

// ErrCellFailed is the sentinel every per-cell failure wraps; callers can
// errors.Is against it without knowing which cell failed or why.
var ErrCellFailed = errors.New("runner: cell failed")

// CellError records one failed cell: its index and the underlying cause
// (the cell function's error, or a *PanicError if it panicked).
type CellError struct {
	Index int
	Cause error
}

// Error formats the failure with its cell index.
func (e *CellError) Error() string {
	return fmt.Sprintf("runner: cell %d: %v", e.Index, e.Cause)
}

// Unwrap exposes the underlying cause to errors.Is/As.
func (e *CellError) Unwrap() error { return e.Cause }

// Is reports ErrCellFailed as a match, making every cell failure
// errors.Is-compatible with the package sentinel.
func (e *CellError) Is(target error) bool { return target == ErrCellFailed }

// PanicError is the cause recorded when a cell panics.
type PanicError struct {
	Value any
	Stack []byte
}

// Error formats the recovered panic value.
func (e *PanicError) Error() string { return fmt.Sprintf("panic: %v", e.Value) }

// Progress is a snapshot of a running sweep, delivered to
// Options.OnProgress after each cell completes.
type Progress struct {
	// Done and Total count cells.
	Done, Total int
	// Elapsed is wall-clock time since the sweep started.
	Elapsed time.Duration
	// CellsPerSec is the observed completion rate.
	CellsPerSec float64
	// ETA estimates the remaining wall-clock time at the current rate.
	ETA time.Duration
}

// Options configures a sweep.
type Options struct {
	// Workers bounds the pool; <= 0 means runtime.GOMAXPROCS(0).
	Workers int
	// OnProgress, when non-nil, is invoked (serialized, from worker
	// goroutines) after each cell completes.
	OnProgress func(Progress)
}

func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// CellSeed derives the per-cell engine seed from the sweep's root seed and
// the cell index: a 64-bit FNV-1a hash of both, folded to a non-negative
// int64. The rule is stable across releases — changing it would change
// every recorded experiment — and collision-resistant enough that
// neighbouring cells never share an RNG stream.
func CellSeed(root int64, index int) int64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime
			v >>= 8
		}
	}
	mix(uint64(root))
	mix(uint64(index))
	s := int64(h &^ (1 << 63))
	if s == 0 {
		s = 1
	}
	return s
}

// Map runs cell(0..n-1) across the worker pool and returns the results in
// cell order. Every cell runs even if others fail; the returned error is
// the join of all *CellError values in cell order (nil if none). A
// panicking cell contributes a CellError wrapping a *PanicError.
func Map[T any](n int, opt Options, cell func(i int) (T, error)) ([]T, error) {
	results := make([]T, n)
	cellErrs := make([]error, n)
	if n == 0 {
		return results, nil
	}

	workers := opt.workers()
	if workers > n {
		workers = n
	}

	//detlint:allow wallclock — progress reporting to a human terminal; elapsed/ETA never reach a cell or an artefact
	start := time.Now()
	var mu sync.Mutex // serializes OnProgress
	done := 0
	report := func() {
		if opt.OnProgress == nil {
			return
		}
		mu.Lock()
		defer mu.Unlock()
		done++
		//detlint:allow wallclock — same progress timer: wall-clock elapsed is display-only
		p := Progress{Done: done, Total: n, Elapsed: time.Since(start)}
		if secs := p.Elapsed.Seconds(); secs > 0 {
			p.CellsPerSec = float64(done) / secs
			p.ETA = time.Duration(float64(n-done) / p.CellsPerSec * float64(time.Second))
		}
		opt.OnProgress(p)
	}

	runCell := func(i int) {
		defer func() {
			if r := recover(); r != nil {
				cellErrs[i] = &CellError{Index: i, Cause: &PanicError{Value: r, Stack: debug.Stack()}}
			}
			report()
		}()
		res, err := cell(i)
		if err != nil {
			cellErrs[i] = &CellError{Index: i, Cause: err}
			return
		}
		results[i] = res
	}

	indices := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range indices {
				runCell(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		indices <- i
	}
	close(indices)
	wg.Wait()

	return results, errors.Join(cellErrs...)
}
