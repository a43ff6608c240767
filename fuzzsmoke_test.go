package cloudskulk_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

var (
	// fuzzSmokeLine matches one target of the Makefile's fuzz-smoke
	// recipe and captures the target's name and package directory.
	fuzzSmokeLine = regexp.MustCompile(`-fuzz='\^(Fuzz\w+)\$\$'.* \./(\S+)$`)
	// fuzzFunc matches a fuzz target's declaration in a test file.
	fuzzFunc = regexp.MustCompile(`(?m)^func (Fuzz\w+)\(`)
)

// TestFuzzSmokeListsEveryTarget: `make fuzz-smoke` runs every fuzz target
// in the module, so a new Fuzz function cannot be left out of it, and
// every target it names exists.
func TestFuzzSmokeListsEveryTarget(t *testing.T) {
	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	listed := map[string]bool{}
	for _, line := range strings.Split(string(mk), "\n") {
		if m := fuzzSmokeLine.FindStringSubmatch(line); m != nil {
			listed[m[2]+"."+m[1]] = true
		}
	}

	found := map[string]bool{}
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != "." && (name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); path != "." && err == nil {
				return filepath.SkipDir // a module of its own
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range fuzzFunc.FindAllStringSubmatch(string(src), -1) {
			found[filepath.ToSlash(filepath.Dir(path))+"."+m[1]] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	var missing, stale []string
	for k := range found {
		if !listed[k] {
			missing = append(missing, k)
		}
	}
	for k := range listed {
		if !found[k] {
			stale = append(stale, k)
		}
	}
	sort.Strings(missing)
	sort.Strings(stale)
	if len(missing) > 0 {
		t.Errorf("fuzz targets missing from make fuzz-smoke: %s", strings.Join(missing, ", "))
	}
	if len(stale) > 0 {
		t.Errorf("make fuzz-smoke names targets that do not exist: %s", strings.Join(stale, ", "))
	}
	if len(found) == 0 {
		t.Fatal("found no fuzz targets; the walk is broken")
	}
}
