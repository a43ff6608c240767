// Package report renders experiment output as aligned ASCII tables and
// bar charts, the textual analogues of the paper's tables and figures.
package report

import (
	"fmt"
	"math"
	"strings"
)

// Table is a titled grid with a header row.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// AddRow appends a row.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// Render returns the table as aligned text.
func (t *Table) Render() string {
	ncols := len(t.Headers)
	for _, r := range t.Rows {
		if len(r) > ncols {
			ncols = len(r)
		}
	}
	widths := make([]int, ncols)
	measure := func(cells []string) {
		for i, c := range cells {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	measure(t.Headers)
	for _, r := range t.Rows {
		measure(r)
	}

	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	line := func(cells []string) {
		for i := 0; i < ncols; i++ {
			c := ""
			if i < len(cells) {
				c = cells[i]
			}
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteString("\n")
	}
	line(t.Headers)
	sep := make([]string, ncols)
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range t.Rows {
		line(r)
	}
	return b.String()
}

// Bar is one bar of a chart.
type Bar struct {
	Label string
	Value float64
	// Note is appended after the value (e.g. "+25.7% vs L1", "rsd 4%").
	Note string
}

// BarChart renders labelled horizontal bars on a log10 scale — the
// paper's Figs. 2-6 all use log or wide-range axes.
type BarChart struct {
	Title string
	Unit  string
	Width int // bar column width in characters (default 40)
	Bars  []Bar
}

// Add appends a bar.
func (c *BarChart) Add(label string, value float64, note string) {
	c.Bars = append(c.Bars, Bar{Label: label, Value: value, Note: note})
}

// Render returns the chart as text.
func (c *BarChart) Render() string {
	width := c.Width
	if width <= 0 {
		width = 40
	}
	var b strings.Builder
	if c.Title != "" {
		fmt.Fprintf(&b, "%s", c.Title)
		if c.Unit != "" {
			fmt.Fprintf(&b, " (%s, log scale)", c.Unit)
		}
		b.WriteString("\n")
	}
	labelW, maxV, minV := 0, 0.0, math.Inf(1)
	for _, bar := range c.Bars {
		if len(bar.Label) > labelW {
			labelW = len(bar.Label)
		}
		if bar.Value > maxV {
			maxV = bar.Value
		}
		if bar.Value < minV && bar.Value > 0 {
			minV = bar.Value
		}
	}
	scale := func(v float64) int {
		if v <= 0 || maxV <= 0 {
			return 0
		}
		// The smallest bar sits half a decade above the axis, so it stays
		// visible.
		lo := math.Log10(minV) - 0.5
		return int(float64(width) * (math.Log10(v) - lo) / (math.Log10(maxV) - lo))
	}
	for _, bar := range c.Bars {
		n := scale(bar.Value)
		if n < 1 && bar.Value > 0 {
			n = 1
		}
		if n > width {
			n = width
		}
		fmt.Fprintf(&b, "%-*s |%-*s| %.4g", labelW, bar.Label, width, strings.Repeat("#", n), bar.Value)
		if c.Unit != "" {
			fmt.Fprintf(&b, " %s", c.Unit)
		}
		if bar.Note != "" {
			fmt.Fprintf(&b, "  [%s]", bar.Note)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// Pct formats a percent-change label the way the paper's figures do.
func Pct(v float64) string {
	return fmt.Sprintf("%+.1f%%", v)
}

// F2 formats a float with two decimals (the paper's table style).
func F2(v float64) string { return fmt.Sprintf("%.2f", v) }

// Comma formats an integer with thousands separators, the Table IV style.
func Comma(n int64) string {
	s := fmt.Sprintf("%d", n)
	neg := strings.HasPrefix(s, "-")
	if neg {
		s = s[1:]
	}
	var parts []string
	for len(s) > 3 {
		parts = append([]string{s[len(s)-3:]}, parts...)
		s = s[:len(s)-3]
	}
	parts = append([]string{s}, parts...)
	out := strings.Join(parts, ",")
	if neg {
		out = "-" + out
	}
	return out
}
