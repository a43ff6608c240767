package runner

import (
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
)

// TestMapOrdering: results land at their cell index regardless of worker
// count and completion order.
func TestMapOrdering(t *testing.T) {
	for _, workers := range []int{1, 2, 8, 64} {
		res, err := Map(100, Options{Workers: workers}, func(i int) (int, error) {
			return i * i, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range res {
			if v != i*i {
				t.Fatalf("workers=%d: res[%d] = %d", workers, i, v)
			}
		}
	}
}

// TestMapDeterminism: a seeded per-cell computation yields identical
// output for 1 and 8 workers.
func TestMapDeterminism(t *testing.T) {
	sweep := func(workers int) []uint64 {
		res, err := Map(64, Options{Workers: workers}, func(i int) (uint64, error) {
			rng := rand.New(rand.NewSource(CellSeed(42, i)))
			var acc uint64
			for j := 0; j < 1000; j++ {
				acc ^= rng.Uint64()
			}
			return acc, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	serial, parallel := sweep(1), sweep(8)
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Fatalf("cell %d: serial %x vs parallel %x", i, serial[i], parallel[i])
		}
	}
}

// TestCellSeedStable pins the derivation rule: these values are part of
// the reproducibility contract and must never change.
func TestCellSeedStable(t *testing.T) {
	if CellSeed(1, 0) == CellSeed(1, 1) {
		t.Fatal("adjacent cells share a seed")
	}
	if CellSeed(1, 0) == CellSeed(2, 0) {
		t.Fatal("distinct roots share a seed")
	}
	for _, root := range []int64{-5, 0, 1, 1 << 40} {
		for i := 0; i < 100; i++ {
			s := CellSeed(root, i)
			if s <= 0 {
				t.Fatalf("CellSeed(%d, %d) = %d, want positive", root, i, s)
			}
			if s != CellSeed(root, i) {
				t.Fatalf("CellSeed(%d, %d) not stable", root, i)
			}
		}
	}
}

// TestMapErrorTaxonomy: cell errors wrap ErrCellFailed and the underlying
// cause, carry the cell index, and do not stop sibling cells.
func TestMapErrorTaxonomy(t *testing.T) {
	cause := errors.New("boom")
	var ran atomic.Int32
	res, err := Map(10, Options{Workers: 4}, func(i int) (int, error) {
		ran.Add(1)
		if i == 3 {
			return 0, cause
		}
		return i, nil
	})
	if err == nil {
		t.Fatal("error swallowed")
	}
	if !errors.Is(err, ErrCellFailed) {
		t.Fatalf("err = %v, want ErrCellFailed", err)
	}
	if !errors.Is(err, cause) {
		t.Fatalf("err = %v, want to wrap cause", err)
	}
	var ce *CellError
	if !errors.As(err, &ce) || ce.Index != 3 {
		t.Fatalf("CellError = %+v", ce)
	}
	if ran.Load() != 10 {
		t.Fatalf("only %d cells ran; failures must not cancel siblings", ran.Load())
	}
	// Healthy cells still delivered their results.
	if res[9] != 9 || res[0] != 0 {
		t.Fatalf("results = %v", res)
	}
}

// TestMapPanicRecovery: a panicking cell becomes a typed error instead of
// killing the sweep.
func TestMapPanicRecovery(t *testing.T) {
	_, err := Map(8, Options{Workers: 4}, func(i int) (int, error) {
		if i == 5 {
			panic("cell exploded")
		}
		return i, nil
	})
	if !errors.Is(err, ErrCellFailed) {
		t.Fatalf("err = %v, want ErrCellFailed", err)
	}
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
	if fmt.Sprint(pe.Value) != "cell exploded" || len(pe.Stack) == 0 {
		t.Fatalf("panic payload = %+v", pe)
	}
	var ce *CellError
	if !errors.As(err, &ce) || ce.Index != 5 {
		t.Fatalf("CellError = %+v", ce)
	}
}

// TestMapProgress: every completion produces a monotone progress report
// ending at Done == Total.
func TestMapProgress(t *testing.T) {
	var reports []Progress
	_, err := Map(20, Options{Workers: 4, OnProgress: func(p Progress) {
		reports = append(reports, p) // serialized by the runner
	}}, func(i int) (int, error) { return i, nil })
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 20 {
		t.Fatalf("got %d reports", len(reports))
	}
	for i, p := range reports {
		if p.Done != i+1 || p.Total != 20 {
			t.Fatalf("report %d = %+v", i, p)
		}
	}
	last := reports[len(reports)-1]
	if last.ETA != 0 {
		t.Fatalf("final ETA = %v, want 0", last.ETA)
	}
}

// TestMapZeroAndExcessWorkers: degenerate shapes still behave.
func TestMapZeroAndExcessWorkers(t *testing.T) {
	if res, err := Map(0, Options{}, func(i int) (int, error) { return i, nil }); err != nil || len(res) != 0 {
		t.Fatalf("empty sweep: res=%v err=%v", res, err)
	}
	res, err := Map(3, Options{Workers: 100}, func(i int) (int, error) { return i + 1, nil })
	if err != nil || res[2] != 3 {
		t.Fatalf("excess workers: res=%v err=%v", res, err)
	}
}
