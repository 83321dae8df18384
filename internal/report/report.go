// Package report renders the paper's tables and figures as text:
// aligned tables, ASCII line/bar charts for the figure series, and CSV
// for downstream plotting. Everything writes to an io.Writer so the
// cmd tools and benchmarks can capture or discard output.
package report

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// Table renders aligned columns with a header row.
type Table struct {
	// Title is printed above the table.
	Title string
	// Header holds the column names.
	Header []string
	rows   [][]string
}

// NewTable creates a table with the given title and columns.
func NewTable(title string, header ...string) *Table {
	return &Table{Title: title, Header: header}
}

// AddRow appends one row; cells render with %v.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = formatFloat(v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

// formatFloat picks a compact representation.
func formatFloat(v float64) string {
	switch {
	case math.IsNaN(v):
		return "NaN"
	case v == 0:
		return "0"
	case math.Abs(v) >= 1e6 || math.Abs(v) < 1e-3:
		return fmt.Sprintf("%.4g", v)
	default:
		return fmt.Sprintf("%.4f", v)
	}
}

// Render writes the table.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.rows {
		writeRow(row)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// BarChart renders a horizontal ASCII bar chart: one labeled bar per
// value, scaled to width characters.
func BarChart(w io.Writer, title string, labels []string, values []float64, width int) error {
	if width <= 0 {
		width = 50
	}
	maxV := 0.0
	maxL := 0
	for i, v := range values {
		if v > maxV {
			maxV = v
		}
		if i < len(labels) && len(labels[i]) > maxL {
			maxL = len(labels[i])
		}
	}
	var b strings.Builder
	if title != "" {
		fmt.Fprintf(&b, "%s\n", title)
	}
	for i, v := range values {
		label := ""
		if i < len(labels) {
			label = labels[i]
		}
		n := 0
		if maxV > 0 {
			n = int(math.Round(v / maxV * float64(width)))
		}
		fmt.Fprintf(&b, "%-*s |%s %s\n", maxL, label, strings.Repeat("#", n), formatFloat(v))
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// LinePlot renders an ASCII scatter of (x, y) points on a
// height×width grid with linear axes — enough to eyeball an ECDF or a
// daily series.
func LinePlot(w io.Writer, title string, xs, ys []float64, width, height int) error {
	if len(xs) != len(ys) {
		return fmt.Errorf("report: x/y length mismatch %d vs %d", len(xs), len(ys))
	}
	if width <= 0 {
		width = 70
	}
	if height <= 0 {
		height = 16
	}
	if len(xs) == 0 {
		_, err := fmt.Fprintf(w, "%s\n(no data)\n", title)
		return err
	}
	minX, maxX := xs[0], xs[0]
	minY, maxY := ys[0], ys[0]
	for i := range xs {
		minX = math.Min(minX, xs[i])
		maxX = math.Max(maxX, xs[i])
		minY = math.Min(minY, ys[i])
		maxY = math.Max(maxY, ys[i])
	}
	if maxX == minX {
		maxX = minX + 1
	}
	if maxY == minY {
		maxY = minY + 1
	}
	grid := make([][]byte, height)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", width))
	}
	for i := range xs {
		c := int((xs[i] - minX) / (maxX - minX) * float64(width-1))
		r := int((ys[i] - minY) / (maxY - minY) * float64(height-1))
		grid[height-1-r][c] = '*'
	}
	var b strings.Builder
	if title != "" {
		fmt.Fprintf(&b, "%s\n", title)
	}
	fmt.Fprintf(&b, "y: %s .. %s\n", formatFloat(minY), formatFloat(maxY))
	for _, row := range grid {
		b.WriteByte('|')
		b.Write(row)
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "x: %s .. %s\n", formatFloat(minX), formatFloat(maxX))
	_, err := io.WriteString(w, b.String())
	return err
}

// LogXPoints transforms xs to log10 for plotting heavy-tailed
// interarrival ECDFs; non-positive values are dropped along with their
// ys.
func LogXPoints(xs, ys []float64) (lx, ly []float64) {
	for i := range xs {
		if xs[i] > 0 {
			lx = append(lx, math.Log10(xs[i]))
			ly = append(ly, ys[i])
		}
	}
	return lx, ly
}
