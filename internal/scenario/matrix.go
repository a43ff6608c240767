package scenario

import (
	"fmt"
	"strings"
	"time"

	"cloudskulk/internal/hv"
	"cloudskulk/internal/report"
	"cloudskulk/internal/runner"
)

// MatrixConfig parameterizes one arms-race sweep.
type MatrixConfig struct {
	// Seed drives strategy generation and every cell's testbed.
	Seed int64
	// Backends lists the hypervisor cost profiles to sweep; empty means
	// every registered backend.
	Backends []string
	// Workers bounds the cell pool; the artefact is byte-identical for
	// any value.
	Workers int
	// OnProgress, when non-nil, receives per-cell completion updates.
	OnProgress func(runner.Progress)
}

// The sweep's fixed shape.
const (
	// matrixStrategies is how many specs Generate draws: every kind once
	// plus one random redraw.
	matrixStrategies = 5
	// dedupPages and dedupWait are the dedup probe-file size and the
	// protocol's scan wait.
	dedupPages = 24
	dedupWait  = 2 * time.Second
	// auditEvery and maxAudits pace the invariant-checksum audit loop.
	auditEvery = time.Second
	maxAudits  = 4
	// settleTime runs the world between attack and scan, letting churn
	// tickers and ksmd interleave before any detector looks.
	settleTime = 2 * time.Second
	// guestMemMB sizes each cell's victim: big enough for the full memory
	// layout, small enough to sweep the cross product.
	guestMemMB = 16
)

func (c MatrixConfig) withDefaults() MatrixConfig {
	if len(c.Backends) == 0 {
		c.Backends = hv.Names()
	}
	return c
}

// Cell is one strategy × detector × backend outcome.
type Cell struct {
	Backend  string
	Strategy string // the spec's wire form
	Detector string

	Caught       bool
	Detail       string
	TimeToDetect time.Duration
	Overhead     time.Duration

	// AtkWrites is the attacker's page-write cost over the run; GatedPages
	// is how many RITM pages ended behind ksmd's volatility gate — the
	// scanner-side residue of churn evasion.
	AtkWrites  uint64
	GatedPages int
}

// MatrixResult is a full sweep: the generated strategies and every cell,
// in deterministic (backend, strategy, detector) order.
type MatrixResult struct {
	Seed      int64
	Backends  []string
	Specs     []Spec
	Detectors []string
	Cells     []Cell
}

// cellSeed derives a cell's world seed from the sweep seed and the cell
// label, so every cell is independent and stable under roster growth.
func cellSeed(root int64, label string) int64 {
	h := uint64(1469598103934665603)
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= 1099511628211
	}
	return root*1_000_003 + int64(h%997)
}

// RunMatrix plays every generated strategy against every roster detector on
// every backend. Cells run on the worker pool; each owns a private seeded
// world, so the result — and its rendered artefact — is byte-identical for
// any worker count.
func RunMatrix(cfg MatrixConfig) (*MatrixResult, error) {
	cfg = cfg.withDefaults()
	specs := Generate(cfg.Seed, matrixStrategies)
	dets := RosterNames()
	n := len(cfg.Backends) * len(specs) * len(dets)

	cells, err := runner.Map(n, runner.Options{Workers: cfg.Workers, OnProgress: cfg.OnProgress},
		func(i int) (Cell, error) {
			di := i % len(dets)
			si := (i / len(dets)) % len(specs)
			bi := i / (len(dets) * len(specs))
			backend, spec, detName := cfg.Backends[bi], specs[si], dets[di]
			label := fmt.Sprintf("%s/%s/%s", backend, spec.Render(), detName)

			w, err := newWorld(cellSeed(cfg.Seed, label), backend, spec)
			if err != nil {
				return Cell{}, fmt.Errorf("cell %s: %w", label, err)
			}
			det, err := newDetector(detName)
			if err != nil {
				return Cell{}, err
			}
			if err := det.Arm(w); err != nil {
				return Cell{}, fmt.Errorf("cell %s: arm: %w", label, err)
			}
			if err := w.Execute(); err != nil {
				return Cell{}, fmt.Errorf("cell %s: %w", label, err)
			}
			w.Cloud.Eng.RunFor(settleTime)
			out, err := det.Scan(w)
			w.StopChurn()
			if err != nil {
				return Cell{}, fmt.Errorf("cell %s: scan: %w", label, err)
			}
			return Cell{
				Backend:      backend,
				Strategy:     spec.Render(),
				Detector:     detName,
				Caught:       out.Caught,
				Detail:       out.Detail,
				TimeToDetect: out.TimeToDetect,
				Overhead:     out.Overhead,
				AtkWrites:    w.AttackWrites(),
				GatedPages:   w.GatedPages(),
			}, nil
		})
	if err != nil {
		return nil, err
	}
	return &MatrixResult{
		Seed:      cfg.Seed,
		Backends:  cfg.Backends,
		Specs:     specs,
		Detectors: dets,
		Cells:     cells,
	}, nil
}

// cellAt returns the cell for a (backend, spec, detector) index triple.
func (r *MatrixResult) cellAt(bi, si, di int) Cell {
	return r.Cells[(bi*len(r.Specs)+si)*len(r.Detectors)+di]
}

// Render emits the coverage-matrix artefact: the full table, per-detector
// coverage, and the arms-race punchline — which dedup-evading strategies
// the invariant-checksum audit still catches.
func (r *MatrixResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Arms-race coverage matrix (seed=%d)\n", r.Seed)
	fmt.Fprintf(&b, "strategies=%d detectors=%d backends=%d cells=%d\n\n",
		len(r.Specs), len(r.Detectors), len(r.Backends), len(r.Cells))

	for i, s := range r.Specs {
		fmt.Fprintf(&b, "S%d: %s\n", i, s.Render())
	}
	b.WriteString("\n")

	tab := report.Table{
		Title:   "strategy x detector x backend",
		Headers: []string{"backend", "strategy", "detector", "caught", "ttd", "overhead", "atk-writes", "gated"},
	}
	for bi := range r.Backends {
		for si := range r.Specs {
			for di := range r.Detectors {
				c := r.cellAt(bi, si, di)
				caught, ttd := "miss", "-"
				if c.Caught {
					caught, ttd = "CAUGHT", c.TimeToDetect.String()
				}
				tab.AddRow(c.Backend, fmt.Sprintf("S%d:%s", si, r.Specs[si].Kind),
					c.Detector, caught, ttd, c.Overhead.String(),
					report.Comma(int64(c.AtkWrites)), report.Comma(int64(c.GatedPages)))
			}
		}
	}
	b.WriteString(tab.Render())
	b.WriteString("\n")

	b.WriteString("Coverage by detector:\n")
	for di, name := range r.Detectors {
		caught := 0
		for bi := range r.Backends {
			for si := range r.Specs {
				if r.cellAt(bi, si, di).Caught {
					caught++
				}
			}
		}
		total := len(r.Backends) * len(r.Specs)
		fmt.Fprintf(&b, "  %-20s %d/%d\n", name, caught, total)
	}

	b.WriteString("\nDedup-evading strategies caught by invariant-checksum:\n")
	pairs := r.EvasionPairs()
	for _, p := range pairs {
		fmt.Fprintf(&b, "  %s S%d: %s\n", r.Backends[p[0]], p[1], r.Specs[p[1]].Render())
	}
	if len(pairs) == 0 {
		b.WriteString("  (none)\n")
	}
	return b.String()
}

// EvasionPairs lists the (backend, strategy) index pairs the dedup-timing
// detector missed but the invariant-checksum detector caught, backend
// major — the matrix's demonstration that the roster covers each member's
// blind spot.
func (r *MatrixResult) EvasionPairs() [][2]int {
	dedupIdx, invIdx := -1, -1
	for di, name := range r.Detectors {
		switch name {
		case DetDedupTiming:
			dedupIdx = di
		case DetInvariantChecksum:
			invIdx = di
		}
	}
	if dedupIdx < 0 || invIdx < 0 {
		return nil
	}
	var out [][2]int
	for bi := range r.Backends {
		for si := range r.Specs {
			if !r.cellAt(bi, si, dedupIdx).Caught && r.cellAt(bi, si, invIdx).Caught {
				out = append(out, [2]int{bi, si})
			}
		}
	}
	return out
}
