package report

import (
	"strings"
	"testing"
)

func TestTableRender(t *testing.T) {
	tb := NewTable("Table X", "name", "value", "ratio")
	tb.AddRow("alpha", 42, 0.12345)
	tb.AddRow("b", 7, 1234567.0)
	var sb strings.Builder
	if err := tb.Render(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"Table X", "name", "alpha", "42", "0.1235", "1.235e+06"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, separator, two rows
		t.Errorf("line count = %d, want 5", len(lines))
	}
	// Columns align: header and rows have same prefix widths.
	if !strings.HasPrefix(lines[2], "-") {
		t.Errorf("separator line wrong: %q", lines[2])
	}
}

func TestBarChart(t *testing.T) {
	var sb strings.Builder
	err := BarChart(&sb, "bars", []string{"one", "two"}, []float64{1, 2}, 10)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "bars") || !strings.Contains(out, "##########") {
		t.Errorf("chart output wrong:\n%s", out)
	}
	// The max bar is exactly width wide; the half bar is about half.
	if !strings.Contains(out, "#####") {
		t.Errorf("missing half bar:\n%s", out)
	}
}

func TestBarChartZeroMax(t *testing.T) {
	var sb strings.Builder
	if err := BarChart(&sb, "", []string{"z"}, []float64{0}, 10); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sb.String(), "#") {
		t.Error("zero values should render no bar")
	}
}

func TestLinePlot(t *testing.T) {
	xs := []float64{0, 1, 2, 3, 4}
	ys := []float64{0, 1, 4, 9, 16}
	var sb strings.Builder
	if err := LinePlot(&sb, "parabola", xs, ys, 40, 10); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "parabola") || strings.Count(out, "*") < 4 {
		t.Errorf("plot output wrong:\n%s", out)
	}
	if err := LinePlot(&sb, "", xs, ys[:2], 40, 10); err == nil {
		t.Error("length mismatch accepted")
	}
	var empty strings.Builder
	if err := LinePlot(&empty, "none", nil, nil, 10, 5); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(empty.String(), "no data") {
		t.Error("empty plot should say so")
	}
}

func TestLinePlotConstantSeries(t *testing.T) {
	var sb strings.Builder
	if err := LinePlot(&sb, "flat", []float64{1, 2, 3}, []float64{5, 5, 5}, 20, 5); err != nil {
		t.Fatal(err)
	}
	if strings.Count(sb.String(), "*") != 3 {
		t.Errorf("flat plot stars = %d, want 3", strings.Count(sb.String(), "*"))
	}
}

func TestLogXPoints(t *testing.T) {
	lx, ly := LogXPoints([]float64{-1, 0, 10, 100}, []float64{1, 2, 3, 4})
	if len(lx) != 2 || len(ly) != 2 {
		t.Fatalf("kept %d points, want 2", len(lx))
	}
	if lx[0] != 1 || lx[1] != 2 || ly[0] != 3 || ly[1] != 4 {
		t.Errorf("log points = %v %v", lx, ly)
	}
}
