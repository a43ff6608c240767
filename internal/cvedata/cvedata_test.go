package cvedata

import (
	"fmt"
	"strings"
	"testing"
)

// TestTotalsMatchPaper checks the Table I bottom row exactly.
func TestTotalsMatchPaper(t *testing.T) {
	want := map[Hypervisor]int{
		VMware:     29,
		VirtualBox: 15,
		Xen:        15,
		HyperV:     14,
		KVMQEMU:    23,
	}
	for hv, n := range want {
		if got := TotalFor(hv); got != n {
			t.Errorf("TotalFor(%s) = %d, paper says %d", hv, got, n)
		}
	}
	total := 0
	for _, hv := range Hypervisors() {
		total += TotalFor(hv)
	}
	if total != 96 {
		t.Fatalf("total = %d, want 96", total)
	}
}

func TestCellsMatchPaper(t *testing.T) {
	cells := []struct {
		year int
		hv   Hypervisor
		n    int
	}{
		{2015, VMware, 5}, {2015, VirtualBox, 0}, {2015, Xen, 1}, {2015, HyperV, 2}, {2015, KVMQEMU, 5},
		{2016, VMware, 4}, {2016, Xen, 2}, {2016, HyperV, 1}, {2016, KVMQEMU, 3},
		{2017, VMware, 3}, {2017, VirtualBox, 1}, {2017, Xen, 6}, {2017, HyperV, 3}, {2017, KVMQEMU, 6},
		{2018, VMware, 2}, {2018, VirtualBox, 11}, {2018, Xen, 0}, {2018, HyperV, 3}, {2018, KVMQEMU, 2},
		{2019, VMware, 5}, {2019, VirtualBox, 2}, {2019, Xen, 6}, {2019, HyperV, 4}, {2019, KVMQEMU, 5},
		{2020, VMware, 10}, {2020, VirtualBox, 1}, {2020, Xen, 0}, {2020, HyperV, 1}, {2020, KVMQEMU, 2},
	}
	for _, c := range cells {
		if got := Count(c.year, c.hv); got != c.n {
			t.Errorf("Count(%d, %s) = %d, want %d", c.year, c.hv, got, c.n)
		}
	}
}

func TestEntriesConsistent(t *testing.T) {
	seen := map[string]bool{}
	for _, y := range Years() {
		for _, hv := range Hypervisors() {
			ids := IDs(y, hv)
			if len(ids) != Count(y, hv) {
				t.Fatalf("IDs(%d, %s) = %d, Count = %d", y, hv, len(ids), Count(y, hv))
			}
			for _, id := range ids {
				if !strings.HasPrefix(id, fmt.Sprintf("CVE-%d-", y)) {
					t.Fatalf("id %q filed under %d", id, y)
				}
				if seen[id] {
					t.Fatalf("duplicate id %q", id)
				}
				seen[id] = true
			}
		}
	}
	if len(seen) != 96 {
		t.Fatalf("entries = %d, want 96", len(seen))
	}
}

func TestIDsSortedAndCopied(t *testing.T) {
	ids := IDs(2018, VirtualBox)
	if len(ids) != 11 {
		t.Fatalf("ids = %d", len(ids))
	}
	for i := 1; i < len(ids); i++ {
		if ids[i] < ids[i-1] {
			t.Fatal("ids not sorted")
		}
	}
	ids[0] = "tampered"
	if IDs(2018, VirtualBox)[0] == "tampered" {
		t.Fatal("IDs returned live slice")
	}
}

func TestCountByYear(t *testing.T) {
	// Paper: majority reported 2015-2020, with 2020 = 14 total.
	byYear := func(y int) int {
		n := 0
		for _, hv := range Hypervisors() {
			n += Count(y, hv)
		}
		return n
	}
	if got := byYear(2020); got != 14 {
		t.Fatalf("2020 = %d", got)
	}
	sum := 0
	for _, y := range Years() {
		sum += byYear(y)
	}
	if sum != 96 {
		t.Fatalf("sum over years = %d", sum)
	}
}

func TestHypervisorsOrder(t *testing.T) {
	hvs := Hypervisors()
	if len(hvs) != 5 || hvs[0] != VMware || hvs[4] != KVMQEMU {
		t.Fatalf("order = %v", hvs)
	}
}
