package scenario

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
	"time"
)

func sha(s string) string {
	h := sha256.Sum256([]byte(s))
	return hex.EncodeToString(h[:])
}

// matrixGoldenHashes pins SHA-256 of the full coverage-matrix artefact
// (every registered backend × 5 generated strategies × 3 detectors) per
// seed. The test also requires the artefact to be byte-identical for any
// worker count, so one hash covers both.
var matrixGoldenHashes = map[string]string{
	"armsrace-matrix/seed=1": "b85dcb0f2f73f815ee3d2ef355f17abddf06df7f2eee7a14bb25db8cf350ebac",
	"armsrace-matrix/seed=7": "b59b7db0d980500fc9bc4af8e4c7e02bc34ff897c85337b009dd453592cb9d54",
}

func testMatrixConfig(seed int64, workers int) MatrixConfig {
	return MatrixConfig{Seed: seed, Workers: workers}
}

// TestMatrixGolden: the coverage matrix renders byte-identically at
// workers 1 and 8, hashes to its pinned value per seed, and demonstrates
// the arms race — at least one generated strategy evades the KSM-timing
// detector yet is caught by the invariant-checksum audit.
func TestMatrixGolden(t *testing.T) {
	for _, seed := range []int64{1, 7} {
		serial, err := RunMatrix(testMatrixConfig(seed, 1))
		if err != nil {
			t.Fatal(err)
		}
		wide, err := RunMatrix(testMatrixConfig(seed, 8))
		if err != nil {
			t.Fatal(err)
		}
		art := serial.Render()
		if wideArt := wide.Render(); wideArt != art {
			t.Errorf("seed %d: workers=8 artefact differs from workers=1 (output depends on worker count)", seed)
		}

		name := "armsrace-matrix/seed=" + map[int64]string{1: "1", 7: "7"}[seed]
		h := sha(art)
		want, pinned := matrixGoldenHashes[name]
		switch {
		case !pinned:
			t.Errorf("artefact %q missing from matrixGoldenHashes", name)
		case want == "":
			t.Logf("CAPTURE %q: %q,", name, h)
		case h != want:
			t.Errorf("artefact %s hash = %s, want %s", name, h, want)
		}

		if pairs := len(serial.EvasionPairs()); pairs < 1 {
			t.Errorf("seed %d: no dedup-evading strategy caught by invariant-checksum\n%s", seed, art)
		}
	}
	for name, want := range matrixGoldenHashes {
		if want == "" {
			t.Errorf("golden hash for %s not captured — run with -v and paste the CAPTURE lines", name)
		}
	}
}

// TestMatrixCoversRegisteredBackends: the default sweep spans every
// registered backend, including the WHP profile, and every cell carries a
// well-formed strategy wire form.
func TestMatrixCoversRegisteredBackends(t *testing.T) {
	res, err := RunMatrix(MatrixConfig{Seed: 1, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	byBackend := map[string]int{}
	for _, c := range res.Cells {
		byBackend[c.Backend]++
		if _, err := Parse(c.Strategy); err != nil {
			t.Fatalf("cell strategy %q does not parse: %v", c.Strategy, err)
		}
	}
	for _, b := range []string{"kvm-i7-4790", "kvm-epyc-7702", "xen-haswell", "hvf-m2", "whp-skylake"} {
		if byBackend[b] != len(res.Specs)*len(res.Detectors) {
			t.Errorf("backend %s has %d cells, want %d", b, byBackend[b], len(res.Specs)*len(res.Detectors))
		}
	}
}

// TestMatrixDetectorBlindSpots: the roster's complementary coverage on the
// default backend — baseline impersonation beats the invariant audit but
// not dedup timing; shared-all churn beats dedup timing but not the
// invariant audit; a quiet shaped install beats exit-skew.
func TestMatrixDetectorBlindSpots(t *testing.T) {
	res, err := RunMatrix(MatrixConfig{Seed: 1, Backends: []string{"kvm-i7-4790"}, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	caught := map[string]map[string]bool{} // kind -> detector -> caught
	for _, c := range res.Cells {
		s, err := Parse(c.Strategy)
		if err != nil {
			t.Fatal(err)
		}
		k := s.Kind.String()
		if caught[k] == nil {
			caught[k] = map[string]bool{}
		}
		if c.Caught {
			caught[k][c.Detector] = true
		}
	}
	if !caught["baseline"][DetDedupTiming] {
		t.Error("dedup timing missed the baseline attack")
	}
	if caught["baseline"][DetInvariantChecksum] {
		t.Error("invariant audit flagged a static impersonation (false positive path)")
	}
	if caught["evade-ksm"][DetDedupTiming] {
		t.Error("dedup timing caught the shared-all churn strategy (evasion failed)")
	}
	if !caught["evade-ksm"][DetInvariantChecksum] {
		t.Error("invariant audit missed the churn strategy")
	}
	if caught["shape-dirty"][DetExitSkew] {
		t.Error("exit-skew flagged a quiet shaped install (below the evidence floor)")
	}
	if !caught["nest-deep"][DetExitSkew] {
		t.Error("exit-skew missed the L3 stack's amplified exits")
	}
}

// TestWorldReplay: one (seed, spec) pair replays to the identical world
// outcome — same attacker writes, same gated-page residue, same verdicts.
func TestWorldReplay(t *testing.T) {
	spec := Spec{Kind: KindEvadeKSM, Install: 250 * time.Millisecond,
		Churn: 40 * time.Millisecond, Scope: ScopeSharedAll, Ops: 4000, Depth: 2}
	run := func() (uint64, int) {
		w, err := newWorld(99, "kvm-i7-4790", spec)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Execute(); err != nil {
			t.Fatal(err)
		}
		w.Cloud.Eng.RunFor(2 * time.Second)
		w.StopChurn()
		return w.AttackWrites(), w.GatedPages()
	}
	w1, g1 := run()
	w2, g2 := run()
	if w1 != w2 || g1 != g2 {
		t.Fatalf("replay diverged: writes %d vs %d, gated %d vs %d", w1, w2, g1, g2)
	}
	if w1 == 0 {
		t.Fatal("churn strategy wrote nothing")
	}
}
