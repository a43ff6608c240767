package main

import (
	"strings"
	"testing"
)

func TestUnknownArtefactListsValidNames(t *testing.T) {
	err := run([]string{"-only", "fig7", "-progress=false"})
	if err == nil {
		t.Fatal("unknown artefact accepted")
	}
	for _, want := range []string{`"fig7"`, "table1full", "watchdog", "ablations"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not mention %s", err, want)
		}
	}
}
