package experiments

import (
	"math"
	"strings"
	"testing"

	"pka/internal/sampling"
)

// The remaining figure generators, exercised end-to-end on the small
// study so their plumbing (caching, exclusion rules, geomeans) is covered
// without paying for the 147-workload sweep.

func TestFigure6SmallSet(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	s := smallStudy()
	chart, tab, err := Figure6(s)
	if err != nil {
		t.Fatal(err)
	}
	out := chart.String()
	for _, want := range []string{"Full Simulation", "PKS", "PKA"} {
		if !strings.Contains(out, want) {
			t.Errorf("figure 6 missing series %q", want)
		}
	}
	if len(tab.Rows) != 3 {
		t.Errorf("summary rows = %d", len(tab.Rows))
	}
}

func TestFigure7And8SmallSet(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	s := smallStudy()
	chart7, tab7, err := Figure7(s)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(chart7.String(), "PKA") || !strings.Contains(chart7.String(), "TBPoint") {
		t.Error("figure 7 series missing")
	}
	// Every comparable app contributes one speedup per method.
	if len(tab7.Rows) != 3 {
		t.Errorf("figure 7 table rows = %d", len(tab7.Rows))
	}
	_, tab8, err := Figure8(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab8.Rows) != 4 {
		t.Errorf("figure 8 table rows = %d", len(tab8.Rows))
	}
	// 1B with a budget that covers an app simulates all of it, so there
	// its error is full simulation's, bit for bit.
	covered := 0
	for _, w := range s.ComparableSet() {
		if p := sampling.PlanFirstN(s.SelectionDevice(), w, nil, 0); len(p.Whole) != w.N {
			continue
		}
		covered++
		ev, err := s.Baselines(s.SelectionDevice(), w)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(ev.OneB.ErrorPct) != math.Float64bits(ev.Full.ErrorPct) || ev.OneB.ProjCycles != ev.Full.ProjCycles {
			t.Errorf("%s: 1B covers the app but errs %v%% against full simulation's %v%%", w.FullName(), ev.OneB.ErrorPct, ev.Full.ErrorPct)
		}
	}
	if covered == 0 {
		t.Error("no comparable app fits the 1B budget whole")
	}
}

func TestFigure9And10SmallSet(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	s := smallStudy()
	chart9, tab9, err := Figure9(s)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(chart9.String(), "Silicon") {
		t.Error("figure 9 silicon series missing")
	}
	if len(tab9.Rows) != 4 {
		t.Errorf("figure 9 rows = %d", len(tab9.Rows))
	}
	_, tab10, err := Figure10(s)
	if err != nil {
		t.Fatal(err)
	}
	// Every methodology should report a >= 1x geomean for 80-vs-40 SMs.
	for _, r := range tab10.Rows {
		val := strings.TrimSuffix(r[1], "x")
		if val == "*" || val == "" {
			continue
		}
		if strings.HasPrefix(val, "0.") {
			t.Errorf("%s reports 80-SM slower than 40-SM: %s", r[0], r[1])
		}
	}
}

func TestAblationThresholdAndWave(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	s := New()
	tab, err := AblationPKPThreshold(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) == 0 {
		t.Fatal("empty threshold ablation")
	}
	tab2, err := AblationWaveConstraint(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab2.Rows) == 0 {
		t.Fatal("empty wave ablation")
	}
	tab3, err := AblationClassifier(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab3.Rows) != 4 {
		t.Errorf("classifier ablation rows = %d, want 4 models", len(tab3.Rows))
	}
}
