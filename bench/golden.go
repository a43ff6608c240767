package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"
)

// goldenJSON pins each workload's rendered output for a set of seeds, as
// the program produced it when the benchmark was defined. A unit whose
// output no longer matches fails: a speed-up must not change what the
// simulator computes.
//
//go:embed golden.json
var goldenJSON []byte

type goldenFile struct {
	Note string `json:"note"`
	Pins []pin  `json:"pins"`
}

// pin is one workload's output at one seed: its SHA-256, and the text
// itself so a mismatch can name the first line that differs.
type pin struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	SHA256   string `json:"sha256"`
	Text     string `json:"text"`
}

func loadGolden() (goldenFile, error) {
	var g goldenFile
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return g, fmt.Errorf("golden.json: %w", err)
	}
	for _, p := range g.Pins {
		if sha(p.Text) != p.SHA256 {
			return g, fmt.Errorf("golden.json: %s seed %d: text does not hash to its sha256", p.Workload, p.Seed)
		}
	}
	return g, nil
}

func sha(s string) string {
	h := sha256.Sum256([]byte(s))
	return hex.EncodeToString(h[:])
}

// check compares a unit's output with its seed's pin, if there is one.
func (g goldenFile) check(workload string, seed int64, render string) error {
	for _, p := range g.Pins {
		if p.Workload != workload || p.Seed != seed {
			continue
		}
		if got := sha(render); got != p.SHA256 {
			line, gotLine, wantLine := firstDiff(render, p.Text)
			return fmt.Errorf("%s seed %d output sha256 %s, pinned %s; first difference at line %d:\n  got:  %q\n  want: %q",
				workload, seed, got[:16], p.SHA256[:16], line, gotLine, wantLine)
		}
		return nil
	}
	return nil
}

// firstDiff returns the 1-based number of the first line where got and
// want differ, and both versions of it ("" past the end of either).
func firstDiff(got, want string) (int, string, string) {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; ; i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl || i >= len(g) || i >= len(w) {
			return i + 1, gl, wl
		}
	}
}
