package report

import (
	"strings"
	"testing"
)

func TestTableRender(t *testing.T) {
	tbl := Table{
		Title:   "TABLE X",
		Headers: []string{"Config", "value"},
	}
	tbl.AddRow("L0", "1.00")
	tbl.AddRow("L1-long-label", "2.00")
	out := tbl.Render()
	if !strings.HasPrefix(out, "TABLE X\n") {
		t.Fatalf("missing title:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title + header + separator + 2 rows
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	// All data lines align: same column start for second column.
	idx := strings.Index(lines[1], "value")
	for _, ln := range lines[2:] {
		if len(ln) < idx {
			t.Fatalf("short line %q", ln)
		}
	}
	if !strings.Contains(lines[2], "---") {
		t.Fatalf("no separator: %q", lines[2])
	}
}

func TestTableRaggedRows(t *testing.T) {
	tbl := Table{Headers: []string{"a"}}
	tbl.AddRow("1", "2", "3")
	out := tbl.Render()
	if !strings.Contains(out, "3") {
		t.Fatalf("extra cells dropped:\n%s", out)
	}
}

func TestBarChartLogCompressesRange(t *testing.T) {
	c := BarChart{Title: "Fig", Unit: "s", Width: 40}
	c.Add("small", 1, "")
	c.Add("big", 1000, "+99900.0%")
	out := c.Render()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if lines[0] != "Fig (s, log scale)" {
		t.Fatalf("title:\n%s", out)
	}
	small := strings.Count(lines[1], "#")
	big := strings.Count(lines[2], "#")
	if big != 40 {
		t.Fatalf("max bar = %d", big)
	}
	if !strings.HasSuffix(lines[2], "[+99900.0%]") {
		t.Fatalf("note missing:\n%s", out)
	}
	// On a linear scale 1/1000 would render one char; log gives it a
	// visible fraction.
	if small < 3 {
		t.Fatalf("log scale did not lift small bar: %d", small)
	}
}

func TestBarChartZeroValue(t *testing.T) {
	c := BarChart{Width: 10}
	c.Add("zero", 0, "")
	out := c.Render()
	if strings.Count(out, "#") != 0 {
		t.Fatalf("zero bar rendered:\n%s", out)
	}
}

func TestPct(t *testing.T) {
	if got := Pct(25.7); got != "+25.7%" {
		t.Fatalf("Pct = %q", got)
	}
	if got := Pct(-8.9); got != "-8.9%" {
		t.Fatalf("Pct = %q", got)
	}
}

func TestComma(t *testing.T) {
	cases := map[int64]string{
		0:       "0",
		999:     "999",
		1000:    "1,000",
		126418:  "126,418",
		-280884: "-280,884",
	}
	for n, want := range cases {
		if got := Comma(n); got != want {
			t.Fatalf("Comma(%d) = %q, want %q", n, got, want)
		}
	}
}

func TestFloatFormats(t *testing.T) {
	if F2(3.456) != "3.46" {
		t.Fatal("float formats")
	}
}

// TestTableRenderGolden pins the renderer's exact byte output: column
// widths come from the widest cell (header or data), columns are separated
// by exactly two spaces, and the separator row matches each column's
// width. Any formatting change must update this golden deliberately,
// because downstream determinism tests compare rendered artefacts
// byte-for-byte.
func TestTableRenderGolden(t *testing.T) {
	tbl := Table{
		Title:   "TABLE II",
		Headers: []string{"Op", "L0", "L2"},
	}
	tbl.AddRow("syscall", "0.04", "1.22")
	tbl.AddRow("fork+exit", "99.00", "3252.00")
	golden := "" +
		"TABLE II\n" +
		"Op         L0     L2     \n" +
		"---------  -----  -------\n" +
		"syscall    0.04   1.22   \n" +
		"fork+exit  99.00  3252.00\n"
	if got := tbl.Render(); got != golden {
		t.Fatalf("golden mismatch:\n-- got --\n%q\n-- want --\n%q", got, golden)
	}
}

// TestTableAlignmentMultiDigit: when a data cell outgrows its header
// (multi-digit counters vs a short header), every column still starts at
// one fixed offset on every line — the widest value wins the width.
func TestTableAlignmentMultiDigit(t *testing.T) {
	tbl := Table{Headers: []string{"n", "pages"}}
	tbl.AddRow("1", "7")
	tbl.AddRow("10", "4096")
	tbl.AddRow("100000", "1048576")
	out := tbl.Render()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// Column 2 must start at the same offset everywhere: after the
	// widest first cell ("100000", 6 chars) plus the 2-space gap.
	wantIdx := len("100000") + 2
	for i, ln := range lines {
		if len(ln) < wantIdx {
			t.Fatalf("line %d shorter than column offset: %q", i, ln)
		}
		if i >= 2 {
			if cell2 := strings.TrimRight(ln[wantIdx:], " "); cell2 != tbl.Rows[i-2][1] {
				t.Errorf("line %d: second column misaligned, got %q from %q", i, cell2, ln)
			}
		}
	}
	if !strings.HasPrefix(lines[1], strings.Repeat("-", len("100000"))) {
		t.Errorf("separator not sized to widest cell: %q", lines[1])
	}
}
