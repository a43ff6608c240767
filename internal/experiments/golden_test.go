package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
	"time"

	"cloudskulk/internal/telemetry"
)

// goldenArtefactHashes pins the SHA-256 of rendered experiment artefacts
// and telemetry exports, captured from the tree BEFORE the PR-4 hot-path
// optimisations (event pooling, word-level dirty harvesting, checksum-gated
// KSM, incremental space hashing). Any optimisation that perturbs RNG draw
// order, event ordering, or KSM merge behaviour shows up here as a hash
// mismatch. Keys are "<artefact>/seed=<n>".
//
// The telemetry-export hashes were re-captured once, when
// ksm_pages_scanned_total started counting scanned pages (it had stayed 0)
// and ksm_merges_total started counting stable-tree attaches as well as
// new pairs, so both match the daemon's pages-scanned and Merges ledger. No
// other line of either export changed.
var goldenArtefactHashes = map[string]string{
	"detect-infected/seed=1":  "5edd9fd4428670bd1d605f715ac001f69ab4ba806a5fe786e452a604af1e77df",
	"detect-infected/seed=7":  "4858e5278b275cd2690234c212519ccf0743dcbc4bb2053fafbe10f9066583eb",
	"detect-clean/seed=1":     "cfd6a9250ae3552ec6d3f3e59bacab2ba1a87086356d30b59ce26fa35b7299e5",
	"fig4-migration/seed=1":   "d2b4225b19b753010a0c1ac2a9812652f5eeb70b1e4afebde9b4e4fb206f2440",
	"fig4-migration/seed=7":   "5df2845f8bdb85a0da01686af9e4b7acf1de510b7b25a3f3fc8944b3503cf45d",
	"fleetstorm/seed=1":       "56dcdc87852c01407df34f160d15c2af3c8b28bf89210afd1310d2fd64c9bfe4",
	"fleetstorm/seed=7":       "56dcdc87852c01407df34f160d15c2af3c8b28bf89210afd1310d2fd64c9bfe4",
	"ablate-ksmwait/seed=1":   "fbeb83f862b2225b1acd0b4fc714841e0312d9e1c7c2868f65fef782e9dd5ee0",
	"telemetry-export/seed=1": "1dd6062d1e8d0a18402ca55aa9f260ce09c63febea17511b2f5c844a636506b5",
	"telemetry-export/seed=7": "ab23c17d18a16cdc165683d919c0b6c9502a0a30fb2856a1a41c69b52cefea58",
}

func sha(s string) string {
	h := sha256.Sum256([]byte(s))
	return hex.EncodeToString(h[:])
}

// goldenArtefacts renders every pinned artefact for one seed at the given
// worker count. Artefact content must not depend on workers; the test runs
// both serial and wide to prove it.
func goldenArtefacts(t *testing.T, seed int64, workers int) map[string]string {
	t.Helper()
	o := TestOptions()
	o.Seed = seed
	o.Workers = workers
	key := func(name string) string { return fmt.Sprintf("%s/seed=%d", name, seed) }
	out := make(map[string]string)

	inf, err := Figure6DetectionInfected(o)
	if err != nil {
		t.Fatal(err)
	}
	out[key("detect-infected")] = sha(inf.Render())

	if seed == 1 {
		clean, err := Figure5DetectionClean(o)
		if err != nil {
			t.Fatal(err)
		}
		out[key("detect-clean")] = sha(clean.Render())

		kw, err := AblationKSMWait(o, []time.Duration{2 * time.Second, 10 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		out[key("ablate-ksmwait")] = sha(kw.Render())
	}

	fig4, err := Figure4Migration(o)
	if err != nil {
		t.Fatal(err)
	}
	out[key("fig4-migration")] = sha(fig4.Render())

	storm, err := FleetMigrationStorm(o, []int{4}, []int{2}, []float64{0.5})
	if err != nil {
		t.Fatal(err)
	}
	out[key("fleetstorm")] = sha(storm.Render())

	to := o
	to.Telemetry = telemetry.NewRegistry()
	if _, err := Figure4Migration(to); err != nil {
		t.Fatal(err)
	}
	if _, err := FleetMigrationStorm(to, []int{4}, []int{2}, []float64{0.5}); err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if err := to.Telemetry.WriteJSONLines(&b); err != nil {
		t.Fatal(err)
	}
	b.WriteString(to.Telemetry.PromText())
	out[key("telemetry-export")] = sha(b.String())
	return out
}

// TestGoldenArtefactHashes: one detection, one migration, and one
// fleet-storm experiment (plus the KSM-wait ablation, the artefact most
// sensitive to KSM scan-loop changes, and the telemetry exports) hash to
// exactly the values captured before the hot-path overhaul, across seeds
// and worker counts.
func TestGoldenArtefactHashes(t *testing.T) {
	for _, seed := range []int64{1, 7} {
		for _, workers := range []int{1, 8} {
			got := goldenArtefacts(t, seed, workers)
			for name, h := range got {
				want := goldenArtefactHashes[name]
				if want == "" {
					t.Logf("CAPTURE %q: %q,", name, h)
					continue
				}
				if h != want {
					t.Errorf("seed=%d workers=%d artefact %s hash = %s, want %s (output changed vs pre-optimisation tree)",
						seed, workers, name, h, want)
				}
			}
		}
	}
	for name, want := range goldenArtefactHashes {
		if want == "" {
			t.Errorf("golden hash for %s not captured — run with -v and paste the CAPTURE lines", name)
		}
	}
}
