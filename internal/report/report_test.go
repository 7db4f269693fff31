package report

import (
	"math"
	"strings"
	"testing"
)

func TestTableRendering(t *testing.T) {
	tb := &Table{
		Title:   "Demo",
		Columns: []string{"App", "Err"},
		Notes:   []string{"hello"},
	}
	tb.AddRow("gauss", "1.6")
	tb.AddRow("a-much-longer-name") // short row padded
	s := tb.String()
	for _, want := range []string{"Demo", "App", "Err", "gauss", "a-much-longer-name", "note: hello"} {
		if !strings.Contains(s, want) {
			t.Errorf("table output missing %q:\n%s", want, s)
		}
	}
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	// Header and data rows align: the Err column starts at the same byte.
	idx := strings.Index(lines[2], "Err")
	if idx < 0 {
		t.Fatalf("header line wrong: %q", lines[2])
	}
	row := lines[4]
	if len(row) <= idx || row[:5] != "gauss" {
		t.Errorf("row misaligned: %q", row)
	}
}

func TestChartRendering(t *testing.T) {
	c := &Chart{
		Title:  "Speedups",
		YLabel: "x",
		Series: []Series{
			{Name: "pka", Values: []float64{1, 10, 100}},
			{Name: "tbp", Values: []float64{1, 2, 4}},
		},
		LogY: true,
	}
	s := c.String()
	for _, want := range []string{"Speedups", "* pka", "o tbp", "log scale"} {
		if !strings.Contains(s, want) {
			t.Errorf("chart missing %q:\n%s", want, s)
		}
	}
}

func TestChartEmptyAndNonPositiveLog(t *testing.T) {
	c := &Chart{Series: []Series{{Name: "empty"}}}
	if !strings.Contains(c.String(), "no data") {
		t.Error("empty chart should say so")
	}
	c2 := &Chart{LogY: true, Series: []Series{{Name: "zeros", Values: []float64{0, 0}}}}
	if !strings.Contains(c2.String(), "no data") {
		t.Error("all-non-positive log chart should degrade to no data")
	}
}

func TestChartWideInputDownsamples(t *testing.T) {
	vals := make([]float64, 500)
	for i := range vals {
		vals[i] = float64(i + 1)
	}
	c := &Chart{Series: []Series{{Name: "wide", Values: vals}}}
	s := c.String()
	for _, line := range strings.Split(s, "\n") {
		if len(line) > 140 {
			t.Fatalf("chart line too wide: %d chars", len(line))
		}
	}
}

func TestF(t *testing.T) {
	if F(1.234, 1) != "1.2" {
		t.Errorf("F = %q", F(1.234, 1))
	}
	if F(math.NaN(), 2) != "*" || F(math.Inf(1), 0) != "*" {
		t.Error("NaN/Inf should render as *")
	}
}

func TestHoursLadder(t *testing.T) {
	cases := []struct {
		in   float64
		want string
	}{
		{0.001, "3.6 s"},
		{0.5, "30 m"},
		{5, "5.0 H"},
		{100, "4.2 D"},
		{24 * 400, "1.1 Y"},
		{24 * 365 * 250, "2.5 century"},
	}
	for _, c := range cases {
		if got := Hours(c.in); got != c.want {
			t.Errorf("Hours(%v) = %q, want %q", c.in, got, c.want)
		}
	}
	if Hours(math.NaN()) != "*" {
		t.Error("NaN hours should be *")
	}
}

func TestSecondsLadder(t *testing.T) {
	if got := Seconds(50e-6); got != "50 us" {
		t.Errorf("Seconds = %q", got)
	}
	if got := Seconds(0.25); got != "250.0 ms" {
		t.Errorf("Seconds = %q", got)
	}
	if got := Seconds(30); got != "30.0 s" {
		t.Errorf("Seconds = %q", got)
	}
	if got := Seconds(7200); got != "2.0 H" {
		t.Errorf("Seconds = %q", got)
	}
}
