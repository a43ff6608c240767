package experiments

import (
	"errors"
	"fmt"
	"testing"

	"cloudskulk/internal/hv"
)

// backendGoldenHashes extends the golden table with the backend
// dimension: SHA-256 of rendered artefacts per backend × seed (and, via
// the test, per worker count — the hash must not depend on Workers).
// Keys are "<backend>/<artefact>/seed=<n>".
//
// The kvm-i7-4790 rows are copied verbatim from goldenArtefactHashes:
// the default backend is the paper calibration the pre-refactor tree
// hardcoded, so its artefacts must hash to exactly the pre-refactor
// values (TestBackendGoldenMatrix cross-checks the two tables).
var backendGoldenHashes = map[string]string{
	"kvm-i7-4790/detect-infected/seed=1": "5edd9fd4428670bd1d605f715ac001f69ab4ba806a5fe786e452a604af1e77df",
	"kvm-i7-4790/detect-infected/seed=7": "4858e5278b275cd2690234c212519ccf0743dcbc4bb2053fafbe10f9066583eb",
	"kvm-i7-4790/fig4-migration/seed=1":  "d2b4225b19b753010a0c1ac2a9812652f5eeb70b1e4afebde9b4e4fb206f2440",
	"kvm-i7-4790/fig4-migration/seed=7":  "5df2845f8bdb85a0da01686af9e4b7acf1de510b7b25a3f3fc8944b3503cf45d",

	// The epyc fig4 rows equal the default's: migration timing is driven
	// by dirty rate and network, and the two profiles share noise and
	// zero-fraction — only exit/KSM economics differ, which fig4 never
	// exercises. Its detection rows diverge, proving the backend is
	// actually threaded through.
	"kvm-epyc-7702/detect-infected/seed=1": "2d6a709f2f7a55c44f314f787ac389c66c171afab76233a7eca54c7fbd501052",
	"kvm-epyc-7702/detect-infected/seed=7": "e4e3c16dc496274316947b4c9f1c1d3c72879e0ff980703fdb5f5202c2af0cee",
	"kvm-epyc-7702/fig4-migration/seed=1":  "d2b4225b19b753010a0c1ac2a9812652f5eeb70b1e4afebde9b4e4fb206f2440",
	"kvm-epyc-7702/fig4-migration/seed=7":  "5df2845f8bdb85a0da01686af9e4b7acf1de510b7b25a3f3fc8944b3503cf45d",

	// xen-haswell shares the default's dirty-rate/network path for fig4
	// only where noise and zero-fraction match — they don't (0.32 vs
	// 0.35, 0.011 vs 0.01), so all four rows diverge from the default's.
	"xen-haswell/detect-infected/seed=1": "fe8b0b0c71324eaf118d6cb185a3aa56d6ddb4ce57f1f2de03bc905be1a3f6ff",
	"xen-haswell/detect-infected/seed=7": "3fce34f213f5ba38b0a55bf9cb3de1d7f0fd7e2d92c1d15bbe6d342a83366363",
	"xen-haswell/fig4-migration/seed=1":  "52d0e0d4b45f944cf1d1997f1ce6003838e8a7d1b77a5e382306a4d4657ef38e",
	"xen-haswell/fig4-migration/seed=7":  "277bc1dbd4b35e23a4f2d24542c7568c0ef7357bd440a1ef0f2599779ac1da38",

	// whp-skylake diverges on every row: its noise (0.013) and
	// zero-fraction (0.37) differ from all the other profiles, so both
	// the migration path and the detection economics resample.
	"whp-skylake/detect-infected/seed=1": "9c83784d3376963a5c5b37be8bdea03274f15d75fe15290cef9d762b46a49353",
	"whp-skylake/detect-infected/seed=7": "728a74cccb2f87a517d0334aa089711547cf2f6c2aa0a143a31811731b9f605d",
	"whp-skylake/fig4-migration/seed=1":  "dd0f43abfbcf3ef8ddef1825635d4b9360f9e2628c03c6d841b2b78105898671",
	"whp-skylake/fig4-migration/seed=7":  "957731a4872faf9e9da5e274fab76538f8cad09956aacb359999a0c0e55539d9",

	"hvf-m2/detect-infected/seed=1": "34392d046bd38ee81cde44da7135fb866b8570785461518ae70ca329da86c2eb",
	"hvf-m2/detect-infected/seed=7": "049c9fc088cd0fd4592292d24ab1f3eab0d687049bcaa05a7c762241041284ad",
	"hvf-m2/fig4-migration/seed=1":  "e9c88b489a25d842699e264a4cdc6e916ca01df474e2719bee8244b4bac4d6ff",
	"hvf-m2/fig4-migration/seed=7":  "cdf8a42d8c7d830ea3e42aa2142ebdaa351c436677dbc4d26fa6838812c9f3b7",
}

// backendArtefacts renders the backend-sensitive artefact pair (the KSM
// timing detection and the migration theft) for one backend × seed ×
// worker count.
func backendArtefacts(t *testing.T, backend string, seed int64, workers int) map[string]string {
	t.Helper()
	o := TestOptions()
	o.Seed = seed
	o.Workers = workers
	o.Backend = backend
	key := func(name string) string { return fmt.Sprintf("%s/%s/seed=%d", backend, name, seed) }
	out := make(map[string]string)

	inf, err := Figure6DetectionInfected(o)
	if err != nil {
		t.Fatal(err)
	}
	out[key("detect-infected")] = sha(inf.Render())

	fig4, err := Figure4Migration(o)
	if err != nil {
		t.Fatal(err)
	}
	out[key("fig4-migration")] = sha(fig4.Render())
	return out
}

// TestBackendGoldenMatrix: every registered backend renders byte-identical
// artefacts for any worker count, each (backend, artefact, seed) cell
// hashes to its pinned value, and the default backend's cells equal the
// pre-refactor golden table entry for entry.
func TestBackendGoldenMatrix(t *testing.T) {
	for _, backend := range hv.Names() {
		for _, seed := range []int64{1, 7} {
			serial := backendArtefacts(t, backend, seed, 1)
			wide := backendArtefacts(t, backend, seed, 8)
			for name, h := range serial {
				if wide[name] != h {
					t.Errorf("%s: workers=8 hash %s != workers=1 hash %s (output depends on worker count)",
						name, wide[name], h)
				}
				want, pinned := backendGoldenHashes[name]
				if !pinned {
					t.Errorf("artefact %q missing from backendGoldenHashes", name)
					continue
				}
				if want == "" {
					t.Logf("CAPTURE %q: %q,", name, h)
					continue
				}
				if h != want {
					t.Errorf("artefact %s hash = %s, want %s", name, h, want)
				}
			}
		}
	}

	// The refactor invariant: the default backend IS the pre-refactor
	// tree. Its rows in this table must be copies of the legacy one.
	for _, seed := range []int64{1, 7} {
		for _, art := range []string{"detect-infected", "fig4-migration"} {
			legacy := goldenArtefactHashes[fmt.Sprintf("%s/seed=%d", art, seed)]
			pinned := backendGoldenHashes[fmt.Sprintf("%s/%s/seed=%d", hv.DefaultName, art, seed)]
			if legacy != pinned {
				t.Errorf("default backend row %s/seed=%d (%s) diverged from the pre-refactor golden (%s)",
					art, seed, pinned, legacy)
			}
		}
	}

	for name, want := range backendGoldenHashes {
		if want == "" {
			t.Errorf("golden hash for %s not captured — run with -v and paste the CAPTURE lines", name)
		}
	}
}

// TestNewCloudBackendOption: WithBackend builds the testbed's host on the
// named backend, and an unregistered name fails the constructor with
// hv.ErrUnknownBackend.
func TestNewCloudBackendOption(t *testing.T) {
	for _, name := range hv.Names() {
		c, err := NewCloud(11, WithGuestMemMB(32), WithBackend(name))
		if err != nil {
			t.Fatal(err)
		}
		if got := c.Host.Backend().Name; got != name {
			t.Fatalf("host built on backend %q, want %q", got, name)
		}
	}
	if _, err := NewCloud(1, WithBackend("xen-4.1")); !errors.Is(err, hv.ErrUnknownBackend) {
		t.Fatalf("NewCloud with unknown backend: %v", err)
	}
}
