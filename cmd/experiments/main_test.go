package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"strings"
	"testing"
)

func TestUnknownArtefactListsValidNames(t *testing.T) {
	err := run([]string{"-only", "fig7", "-progress=false"}, io.Discard)
	if err == nil {
		t.Fatal("unknown artefact accepted")
	}
	for _, want := range []string{`"fig7"`, "table1full", "watchdog", "ablations"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not mention %s", err, want)
		}
	}
}

// TestQuickScaleArtefactsPinned runs every artefact at quick scale and
// pins the SHA-256 of stdout at two seeds, so a change that moves any
// artefact's bytes fails here. A change that moves artefacts on purpose
// updates these pins together with the goldens it moves.
func TestQuickScaleArtefactsPinned(t *testing.T) {
	for _, tc := range []struct{ seed, sha256 string }{
		{"1", "d57d7db55e1ecd090fb493cb9a068fe1e8bff5e283969bbfedcb4e61f44494b1"},
		{"7", "df69ece3e074ffa7a55b46853020781ccafa81765398c1916af264a17a480554"},
	} {
		t.Run("seed"+tc.seed, func(t *testing.T) {
			h := sha256.New()
			if err := run([]string{"-scale", "quick", "-progress=false", "-seed", tc.seed}, h); err != nil {
				t.Fatal(err)
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != tc.sha256 {
				t.Errorf("quick-scale stdout SHA-256 = %s, want %s", got, tc.sha256)
			}
		})
	}
}
