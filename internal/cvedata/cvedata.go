// Package cvedata carries the paper's Table I: the VM-escape CVE
// inventory (2015-2020) across the five mainstream hypervisors, with the
// queries Table I renders from: the IDs and count of each cell and each
// hypervisor's total.
package cvedata

import "sort"

// Hypervisor identifies a virtualization platform tracked in Table I.
type Hypervisor string

// The five columns of Table I.
const (
	VMware     Hypervisor = "VMware"
	VirtualBox Hypervisor = "VirtualBox"
	Xen        Hypervisor = "Xen"
	HyperV     Hypervisor = "Hyper-V"
	KVMQEMU    Hypervisor = "KVM/QEMU"
)

// Hypervisors lists the columns in the paper's order.
func Hypervisors() []Hypervisor {
	return []Hypervisor{VMware, VirtualBox, Xen, HyperV, KVMQEMU}
}

// Years lists the rows in the paper's order.
func Years() []int { return []int{2015, 2016, 2017, 2018, 2019, 2020} }

// IDs returns the CVE identifiers for a (year, hypervisor) cell, sorted.
func IDs(year int, hv Hypervisor) []string {
	ids := append([]string(nil), _table[hv][year]...)
	sort.Strings(ids)
	return ids
}

// Count returns the number of CVEs in a (year, hypervisor) cell.
func Count(year int, hv Hypervisor) int { return len(_table[hv][year]) }

// TotalFor returns a hypervisor's 2015-2020 total (the Table I bottom row).
func TotalFor(hv Hypervisor) int {
	n := 0
	for _, ids := range _table[hv] {
		n += len(ids)
	}
	return n
}

// _table transcribes Table I verbatim.
var _table = map[Hypervisor]map[int][]string{
	VMware: {
		2015: {"CVE-2015-2336", "CVE-2015-2337", "CVE-2015-2338", "CVE-2015-2339", "CVE-2015-2340"},
		2016: {"CVE-2016-7082", "CVE-2016-7083", "CVE-2016-7084", "CVE-2016-7461"},
		2017: {"CVE-2017-4903", "CVE-2017-4934", "CVE-2017-4936"},
		2018: {"CVE-2018-6981", "CVE-2018-6982"},
		2019: {"CVE-2019-0964", "CVE-2019-5049", "CVE-2019-5124", "CVE-2019-5146", "CVE-2019-5147"},
		2020: {"CVE-2020-3962", "CVE-2020-3963", "CVE-2020-3964", "CVE-2020-3965", "CVE-2020-3966",
			"CVE-2020-3967", "CVE-2020-3968", "CVE-2020-3969", "CVE-2020-3970", "CVE-2020-3971"},
	},
	VirtualBox: {
		2017: {"CVE-2017-3538"},
		2018: {"CVE-2018-2676", "CVE-2018-2685", "CVE-2018-2686", "CVE-2018-2687", "CVE-2018-2688",
			"CVE-2018-2689", "CVE-2018-2690", "CVE-2018-2693", "CVE-2018-2694", "CVE-2018-2698",
			"CVE-2018-2844"},
		2019: {"CVE-2019-2723", "CVE-2019-3028"},
		2020: {"CVE-2020-2929"},
	},
	Xen: {
		2015: {"CVE-2015-7835"},
		2016: {"CVE-2016-6258", "CVE-2016-7092"},
		2017: {"CVE-2017-8903", "CVE-2017-8904", "CVE-2017-8905", "CVE-2017-10920",
			"CVE-2017-10921", "CVE-2017-17566"},
		2019: {"CVE-2019-18420", "CVE-2019-18421", "CVE-2019-18422", "CVE-2019-18423",
			"CVE-2019-18424", "CVE-2019-18425"},
	},
	HyperV: {
		2015: {"CVE-2015-2361", "CVE-2015-2362"},
		2016: {"CVE-2016-0088"},
		2017: {"CVE-2017-0075", "CVE-2017-0109", "CVE-2017-8664"},
		2018: {"CVE-2018-8439", "CVE-2018-8489", "CVE-2018-8490"},
		2019: {"CVE-2019-0620", "CVE-2019-0709", "CVE-2019-0722", "CVE-2019-0887"},
		2020: {"CVE-2020-0910"},
	},
	KVMQEMU: {
		2015: {"CVE-2015-3209", "CVE-2015-3456", "CVE-2015-5165", "CVE-2015-7504", "CVE-2015-5154"},
		2016: {"CVE-2016-3710", "CVE-2016-4440", "CVE-2016-9603"},
		2017: {"CVE-2017-2615", "CVE-2017-2620", "CVE-2017-2630", "CVE-2017-5931",
			"CVE-2017-5667", "CVE-2017-14167"},
		2018: {"CVE-2018-7550", "CVE-2018-16847"},
		2019: {"CVE-2019-6778", "CVE-2019-7221", "CVE-2019-14835", "CVE-2019-14378",
			"CVE-2019-18389"},
		2020: {"CVE-2020-1711", "CVE-2020-14364"},
	},
}
