// Package report renders the experiment outputs: fixed-width ASCII tables
// (for the paper's Tables 3 and 4), log-scale ASCII charts (for the time
// and speedup figures), and CSV export for downstream plotting.
package report

import (
	"fmt"
	"math"
	"strings"
)

// Table is a titled grid of string cells.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// AddRow appends one row; short rows are padded with empty cells.
func (t *Table) AddRow(cells ...string) {
	for len(cells) < len(t.Columns) {
		cells = append(cells, "")
	}
	t.Rows = append(t.Rows, cells)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title)
		b.WriteByte('\n')
		b.WriteString(strings.Repeat("=", len(t.Title)))
		b.WriteByte('\n')
	}
	writeRow := func(cells []string) {
		for i, w := range widths {
			cell := ""
			if i < len(cells) {
				cell = cells[i]
			}
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", w, cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		b.WriteString("note: ")
		b.WriteString(n)
		b.WriteByte('\n')
	}
	return b.String()
}

// Series is one named line of a chart.
type Series struct {
	Name   string
	Values []float64
}

// Chart is a multi-series plot rendered as ASCII. Values at the same index
// across series share an x position.
type Chart struct {
	Title  string
	YLabel string
	LogY   bool
	Series []Series
	Height int // rows; default 16
	Notes  []string
}

// String renders the chart: one glyph per series, log or linear y.
func (c *Chart) String() string {
	height := c.Height
	if height <= 0 {
		height = 16
	}
	maxLen := 0
	minV, maxV := math.Inf(1), math.Inf(-1)
	for _, s := range c.Series {
		if len(s.Values) > maxLen {
			maxLen = len(s.Values)
		}
		for _, v := range s.Values {
			if c.LogY && v <= 0 {
				continue
			}
			minV = math.Min(minV, v)
			maxV = math.Max(maxV, v)
		}
	}
	var b strings.Builder
	if c.Title != "" {
		b.WriteString(c.Title)
		b.WriteByte('\n')
		b.WriteString(strings.Repeat("=", len(c.Title)))
		b.WriteByte('\n')
	}
	if maxLen == 0 || math.IsInf(minV, 1) {
		b.WriteString("(no data)\n")
		return b.String()
	}
	width := maxLen
	const maxWidth = 110
	stride := 1
	for width/stride > maxWidth {
		stride++
	}
	width = (maxLen + stride - 1) / stride

	scale := func(v float64) float64 {
		if c.LogY {
			if v <= 0 {
				return 0
			}
			lo, hi := math.Log10(minV), math.Log10(maxV)
			if hi == lo {
				return 0.5
			}
			return (math.Log10(v) - lo) / (hi - lo)
		}
		if maxV == minV {
			return 0.5
		}
		return (v - minV) / (maxV - minV)
	}

	glyphs := []byte{'*', 'o', '+', 'x', '#', '@'}
	grid := make([][]byte, height)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", width))
	}
	for si, s := range c.Series {
		g := glyphs[si%len(glyphs)]
		for x := 0; x < width; x++ {
			idx := x * stride
			if idx >= len(s.Values) {
				break
			}
			v := s.Values[idx]
			if c.LogY && v <= 0 {
				continue
			}
			row := height - 1 - int(scale(v)*float64(height-1)+0.5)
			if row < 0 {
				row = 0
			}
			if row >= height {
				row = height - 1
			}
			grid[row][x] = g
		}
	}
	yTop, yBot := fmtAxis(maxV), fmtAxis(minV)
	pad := len(yTop)
	if len(yBot) > pad {
		pad = len(yBot)
	}
	for r, row := range grid {
		label := strings.Repeat(" ", pad)
		if r == 0 {
			label = fmt.Sprintf("%*s", pad, yTop)
		}
		if r == height-1 {
			label = fmt.Sprintf("%*s", pad, yBot)
		}
		b.WriteString(label)
		b.WriteString(" |")
		b.Write(row)
		b.WriteByte('\n')
	}
	b.WriteString(strings.Repeat(" ", pad))
	b.WriteString(" +")
	b.WriteString(strings.Repeat("-", width))
	b.WriteByte('\n')
	if c.YLabel != "" {
		fmt.Fprintf(&b, "y: %s", c.YLabel)
		if c.LogY {
			b.WriteString(" (log scale)")
		}
		b.WriteByte('\n')
	}
	for si, s := range c.Series {
		fmt.Fprintf(&b, "  %c %s\n", glyphs[si%len(glyphs)], s.Name)
	}
	for _, n := range c.Notes {
		b.WriteString("note: ")
		b.WriteString(n)
		b.WriteByte('\n')
	}
	return b.String()
}

func fmtAxis(v float64) string {
	switch {
	case v == 0:
		return "0"
	case math.Abs(v) >= 1e5 || math.Abs(v) < 1e-2:
		return fmt.Sprintf("%.1e", v)
	case math.Abs(v) >= 100:
		return fmt.Sprintf("%.0f", v)
	default:
		return fmt.Sprintf("%.2f", v)
	}
}

// F formats a float with the given decimals, rendering NaN/Inf as "*" (the
// paper's no-data marker).
func F(v float64, decimals int) string {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return "*"
	}
	return fmt.Sprintf("%.*f", decimals, v)
}

// Hours renders a duration given in hours the way the paper does: minutes
// below an hour, days above 72 hours, years beyond that.
func Hours(h float64) string {
	switch {
	case math.IsNaN(h) || math.IsInf(h, 0):
		return "*"
	case h < 1.0/60:
		return fmt.Sprintf("%.1f s", h*3600)
	case h < 1:
		return fmt.Sprintf("%.0f m", h*60)
	case h < 72:
		return fmt.Sprintf("%.1f H", h)
	case h < 24*365:
		return fmt.Sprintf("%.1f D", h/24)
	case h < 24*365*100:
		return fmt.Sprintf("%.1f Y", h/24/365)
	default:
		return fmt.Sprintf("%.1f century", h/24/365/100)
	}
}

// Seconds renders a duration in seconds with the same scale ladder.
func Seconds(s float64) string {
	switch {
	case math.IsNaN(s) || math.IsInf(s, 0):
		return "*"
	case s < 1e-3:
		return fmt.Sprintf("%.0f us", s*1e6)
	case s < 1:
		return fmt.Sprintf("%.1f ms", s*1e3)
	case s < 120:
		return fmt.Sprintf("%.1f s", s)
	default:
		return Hours(s / 3600)
	}
}
