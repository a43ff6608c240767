package qemu

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestDefaultConfig(t *testing.T) {
	c := DefaultConfig("guest0")
	if c.Name != "guest0" || c.MemoryMB != 1024 || c.CPUs != 1 || !c.EnableKVM {
		t.Fatalf("default = %+v", c)
	}
	if len(c.Drives) != 1 || len(c.NetDevs) != 1 {
		t.Fatalf("devices = %+v", c)
	}
}

func TestCommandLineRendering(t *testing.T) {
	c := DefaultConfig("guest0")
	c.NetDevs[0].HostFwds = []FwdRule{{HostPort: 2222, GuestPort: 22}}
	c.MonitorPort = 5555
	line := c.CommandLine()
	for _, want := range []string{
		"qemu-system-x86_64",
		"-enable-kvm",
		"-name guest0",
		"-m 1024",
		"-smp 1",
		"file=guest0.qcow2,format=qcow2",
		"hostfwd=tcp::2222-:22",
		"-monitor telnet:127.0.0.1:5555,server,nowait",
	} {
		if !strings.Contains(line, want) {
			t.Fatalf("command line missing %q:\n%s", want, line)
		}
	}
	if strings.Contains(line, "-incoming") {
		t.Fatal("unexpected -incoming")
	}
	c.Incoming = "tcp:0.0.0.0:4444"
	if !strings.Contains(c.CommandLine(), "-incoming tcp:0.0.0.0:4444") {
		t.Fatal("missing -incoming")
	}
}

// fmtCommandLine is the fmt-based rendering CommandLine replaced, kept as
// the reference its output must match byte for byte: the recon step parses
// these lines out of `ps -ef` and `history`.
func fmtCommandLine(c Config) string {
	var b strings.Builder
	b.WriteString("qemu-system-x86_64")
	if c.EnableKVM {
		b.WriteString(" -enable-kvm")
	}
	fmt.Fprintf(&b, " -name %s", c.Name)
	fmt.Fprintf(&b, " -machine %s", c.Machine)
	fmt.Fprintf(&b, " -m %d", c.MemoryMB)
	fmt.Fprintf(&b, " -smp %d", c.CPUs)
	for _, d := range c.Drives {
		fmt.Fprintf(&b, " -drive file=%s,format=%s,size=%d", d.File, d.Format, d.SizeMB)
	}
	for i, nd := range c.NetDevs {
		fmt.Fprintf(&b, " -device %s,netdev=net%d", nd.Model, i)
		fmt.Fprintf(&b, " -netdev user,id=net%d", i)
		fwds := append([]FwdRule(nil), nd.HostFwds...)
		sort.Slice(fwds, func(a, z int) bool { return fwds[a].HostPort < fwds[z].HostPort })
		for _, f := range fwds {
			fmt.Fprintf(&b, ",hostfwd=tcp::%d-:%d", f.HostPort, f.GuestPort)
		}
	}
	if c.MonitorPort != 0 {
		fmt.Fprintf(&b, " -monitor telnet:127.0.0.1:%d,server,nowait", c.MonitorPort)
	}
	if c.Incoming != "" {
		fmt.Fprintf(&b, " -incoming %s", c.Incoming)
	}
	return b.String()
}

func TestCommandLineMatchesFmtRendering(t *testing.T) {
	withFwds := func(fwds ...FwdRule) Config {
		c := DefaultConfig("guest0")
		c.NetDevs[0].HostFwds = fwds
		return c
	}
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"default", DefaultConfig("guest0")},
		{"no kvm", func() Config { c := DefaultConfig("tcg"); c.EnableKVM = false; return c }()},
		{"no fwds", withFwds()},
		{"one fwd", withFwds(FwdRule{2222, 22})},
		{"unsorted", withFwds(FwdRule{8080, 80}, FwdRule{2222, 22}, FwdRule{5900, 5900}, FwdRule{443, 443})},
		{"wide values", func() Config { c := withFwds(FwdRule{65535, 1}); c.MemoryMB = 1 << 40; c.CPUs = 128; return c }()},
		{"ports and incoming", func() Config {
			c := withFwds(FwdRule{2222, 22})
			c.MonitorPort, c.Incoming = 5555, "tcp:0.0.0.0:6666"
			return c
		}()},
		{"monitor only", func() Config { c := DefaultConfig("m"); c.MonitorPort = 5555; return c }()},
		{"drives and nics", func() Config {
			c := DefaultConfig("tenant.vm")
			c.Drives = append(c.Drives, Drive{File: "data.raw", Format: "raw", SizeMB: 512}, Drive{File: "swap.qcow2", Format: "qcow2", SizeMB: 1})
			c.NetDevs = append(c.NetDevs, NetDev{Model: "e1000", HostFwds: []FwdRule{{9000, 90}, {3000, 30}}})
			return c
		}()},
	} {
		name, c := tc.name, tc.cfg
		before := c.Clone()
		line := c.CommandLine()
		if want := fmtCommandLine(c); line != want {
			t.Errorf("%s:\n got %s\nwant %s", name, line, want)
			continue
		}
		if !reflect.DeepEqual(c, before) {
			t.Errorf("%s: CommandLine mutated its config: %+v, was %+v", name, c, before)
		}
		parsed, err := ParseCommandLine(line)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if again := parsed.CommandLine(); again != line {
			t.Errorf("%s: round trip through ParseCommandLine:\n got %s\nwant %s", name, again, line)
		}
	}
}

func TestParseCommandLineRoundTrip(t *testing.T) {
	c := DefaultConfig("victim")
	c.NetDevs[0].HostFwds = []FwdRule{{2222, 22}, {8080, 80}}
	c.MonitorPort = 5555
	c.Incoming = "tcp:0.0.0.0:4444"
	got, err := ParseCommandLine(c.CommandLine())
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != c.Name || got.Machine != c.Machine || got.MemoryMB != c.MemoryMB ||
		got.CPUs != c.CPUs || got.EnableKVM != c.EnableKVM ||
		got.MonitorPort != c.MonitorPort || got.Incoming != c.Incoming {
		t.Fatalf("round trip = %+v, want %+v", got, c)
	}
	if len(got.Drives) != 1 || got.Drives[0] != c.Drives[0] {
		t.Fatalf("drives = %+v", got.Drives)
	}
	if len(got.NetDevs) != 1 || len(got.NetDevs[0].HostFwds) != 2 {
		t.Fatalf("netdevs = %+v", got.NetDevs)
	}
	if got.NetDevs[0].HostFwds[0] != (FwdRule{2222, 22}) {
		t.Fatalf("fwd = %+v", got.NetDevs[0].HostFwds)
	}
}

func TestParseCommandLineErrors(t *testing.T) {
	bad := []string{
		"",
		"ls -la",
		"qemu-system-x86_64 -m notanumber",
		"qemu-system-x86_64 -m",
		"qemu-system-x86_64 -smp x",
		"qemu-system-x86_64 -drive format=qcow2", // no file=
		"qemu-system-x86_64 -netdev user,id=net0,hostfwd=tcp::x-:22 -device virtio",
	}
	for _, line := range bad {
		if _, err := ParseCommandLine(line); !errors.Is(err, ErrBadCommandLine) {
			t.Fatalf("ParseCommandLine(%q) err = %v, want ErrBadCommandLine", line, err)
		}
	}
}

func TestParseCommandLineDefaults(t *testing.T) {
	c, err := ParseCommandLine("qemu-system-x86_64 -name tiny")
	if err != nil {
		t.Fatal(err)
	}
	if c.MemoryMB != 128 || c.CPUs != 1 {
		t.Fatalf("defaults = %+v", c)
	}
}

func TestParseCommandLineSkipsUnknownFlags(t *testing.T) {
	c, err := ParseCommandLine("qemu-system-x86_64 -nographic -name x -vga std -m 512 -qmp tcp:127.0.0.1:4444,server,nowait")
	if err != nil {
		t.Fatal(err)
	}
	if c.Name != "x" || c.MemoryMB != 512 {
		t.Fatalf("parsed = %+v", c)
	}
}

func TestCloneIsDeep(t *testing.T) {
	c := DefaultConfig("a")
	c.NetDevs[0].HostFwds = []FwdRule{{1, 2}}
	d := c.Clone()
	d.Drives[0].File = "other.img"
	d.NetDevs[0].HostFwds[0].HostPort = 99
	if c.Drives[0].File != "a.qcow2" {
		t.Fatal("drive mutation leaked")
	}
	if c.NetDevs[0].HostFwds[0].HostPort != 1 {
		t.Fatal("fwd mutation leaked")
	}
}

func TestMatchesForMigration(t *testing.T) {
	src := DefaultConfig("src")
	dst := DefaultConfig("dst")
	dst.Incoming = "tcp:0.0.0.0:4444"
	if err := src.MatchesForMigration(dst); err != nil {
		t.Fatalf("matching configs rejected: %v", err)
	}
	cases := []func(*Config){
		func(c *Config) { c.Machine = "q35" },
		func(c *Config) { c.MemoryMB = 2048 },
		func(c *Config) { c.CPUs = 4 },
		func(c *Config) { c.Drives = nil },
		func(c *Config) { c.Drives[0].Format = "raw" },
		func(c *Config) { c.NetDevs = nil },
		func(c *Config) { c.NetDevs[0].Model = "e1000" },
	}
	for i, mutate := range cases {
		bad := DefaultConfig("dst")
		mutate(&bad)
		if err := src.MatchesForMigration(bad); err == nil {
			t.Fatalf("case %d: mismatch accepted", i)
		}
	}
}

func TestParseIncomingPort(t *testing.T) {
	p, err := ParseIncomingPort("tcp:0.0.0.0:4444")
	if err != nil || p != 4444 {
		t.Fatalf("p=%d err=%v", p, err)
	}
	if _, err := ParseIncomingPort("exec:cat"); !errors.Is(err, ErrBadCommandLine) {
		t.Fatalf("err = %v", err)
	}
	if _, err := ParseIncomingPort("tcp:0.0.0.0:nope"); !errors.Is(err, ErrBadCommandLine) {
		t.Fatalf("err = %v", err)
	}
}

// Property: any generated config round-trips through
// CommandLine -> ParseCommandLine with migration-relevant fields intact.
func TestCommandLineRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func(memMB uint16, cpus uint8, nfwd uint8, kvm bool) bool {
		c := DefaultConfig("g")
		c.MemoryMB = int64(memMB)%8192 + 64
		c.CPUs = int(cpus)%8 + 1
		c.EnableKVM = kvm
		n := int(nfwd) % 4
		for i := 0; i < n; i++ {
			c.NetDevs[0].HostFwds = append(c.NetDevs[0].HostFwds, FwdRule{
				HostPort:  1024 + rng.Intn(60000),
				GuestPort: 1 + rng.Intn(1024),
			})
		}
		got, err := ParseCommandLine(c.CommandLine())
		if err != nil {
			return false
		}
		// hostfwds render sorted by host port; compare as sets.
		if len(got.NetDevs) != 1 || len(got.NetDevs[0].HostFwds) != n {
			return false
		}
		want := map[FwdRule]bool{}
		for _, fr := range c.NetDevs[0].HostFwds {
			want[fr] = true
		}
		for _, fr := range got.NetDevs[0].HostFwds {
			if !want[fr] {
				return false
			}
		}
		return got.MemoryMB == c.MemoryMB && got.CPUs == c.CPUs &&
			got.EnableKVM == c.EnableKVM &&
			got.MatchesForMigration(c) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
