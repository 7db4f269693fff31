package experiments

import (
	"strings"
	"testing"

	"pka/internal/gpu"
	"pka/internal/workload"
)

// smallStudy restricts the study to a fast, structurally diverse subset so
// the integration tests exercise every generator without paying for the
// full 147-workload sweep (that is the bench harness's job).
func smallStudy() *Study {
	s := New()
	var ws []*workload.Workload
	for _, name := range []string{
		"Rodinia/gauss_208",
		"Rodinia/bfs65536",
		"Rodinia/hots_512",
		"Parboil/histo",
		"Polybench/fdtd2d",
		"Cutlass/128x128x512_sgemm",
		"MLPerf/3dunet_inf",
	} {
		w := workload.Find(name)
		if w == nil {
			panic("missing workload " + name)
		}
		ws = append(ws, w)
	}
	s.SetWorkloads(ws)
	return s
}

func TestStudyCaching(t *testing.T) {
	s := smallStudy()
	w := workload.Find("Rodinia/gauss_208")
	a, err := s.Selection(w)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Selection(w)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("Selection not cached")
	}
	ca, err := s.CrossGen(gpu.VoltaV100(), w)
	if err != nil {
		t.Fatal(err)
	}
	cb, err := s.CrossGen(gpu.VoltaV100(), w)
	if err != nil {
		t.Fatal(err)
	}
	if ca != cb {
		t.Error("CrossGen results differ across calls")
	}
	if _, misses := s.crossGen.Stats(); misses != 1 {
		t.Errorf("CrossGen computed %d times for one key, want 1", misses)
	}
	// Different devices key separately.
	ct, err := s.CrossGen(gpu.TuringRTX2060(), w)
	if err != nil {
		t.Fatal(err)
	}
	if ct.Truth == ca.Truth {
		t.Error("Turing and Volta silicon suspiciously identical")
	}
}

func TestFigure1SmallSet(t *testing.T) {
	s := smallStudy()
	chart, tab, err := Figure1(s)
	if err != nil {
		t.Fatal(err)
	}
	out := chart.String() + tab.String()
	if !strings.Contains(out, "Silicon Profiler") || !strings.Contains(out, "Simulation") {
		t.Errorf("figure 1 output incomplete:\n%s", out)
	}
	// The MLPerf member must dominate the projected-simulation axis.
	if !strings.Contains(tab.String(), "3dunet") {
		t.Errorf("expected 3dunet as the max-simulation workload:\n%s", tab)
	}
}

func TestTable3Structure(t *testing.T) {
	s := New() // Table 3 touches only named workloads; full set is fine
	tab, err := Table3(s)
	if err != nil {
		t.Fatal(err)
	}
	out := tab.String()
	for _, want := range []string{"gauss_208", "bfs65536", "histo", "fdtd2d", "gramschmidt"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 3 missing %s:\n%s", want, out)
		}
	}
	// gauss_208: all 414 kernels in very few groups; the first selected
	// kernel must be 0 or 1.
	for _, row := range tab.Rows {
		if row[1] == "gauss_208" {
			if !strings.HasPrefix(row[2], "0") && !strings.HasPrefix(row[2], "1") {
				t.Errorf("gauss_208 selected IDs = %s, want first-chronological", row[2])
			}
			if !strings.Contains(row[3], "41") { // groups sum to 414
				t.Logf("gauss_208 counts: %s", row[3])
			}
		}
	}
}

func TestFigure4Groups(t *testing.T) {
	if testing.Short() {
		t.Skip("resnet selection is seconds-long")
	}
	s := New()
	tab, err := Figure4(s)
	if err != nil {
		t.Fatal(err)
	}
	out := tab.String()
	if !strings.Contains(out, "Group 0") {
		t.Fatalf("no groups rendered:\n%s", out)
	}
	// Figure 4's key claims: multiple groups, and groups mixing multiple
	// kernel names.
	if len(tab.Rows) < 3 {
		t.Errorf("only %d groups for ResNet; paper found 9", len(tab.Rows))
	}
	mixed := false
	for _, row := range tab.Rows {
		if strings.Contains(row[3], ",") {
			mixed = true
		}
	}
	if !mixed {
		t.Error("no group contains multiple kernel names; clustering should be name-independent")
	}
}

func TestFigure5StoppingPoints(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	s := New()
	charts, tab, err := Figure5(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(charts) != 2 {
		t.Fatalf("want 2 charts, got %d", len(charts))
	}
	if len(tab.Rows) != 6 {
		t.Fatalf("want 6 stop rows, got %d", len(tab.Rows))
	}
	// Looser thresholds stop earlier (column 2 = stop cycle).
	for app := 0; app < 2; app++ {
		base := app * 3
		if tab.Rows[base][1] != "2.500" || tab.Rows[base+2][1] != "0.025" {
			t.Fatalf("threshold ordering wrong: %+v", tab.Rows[base])
		}
	}
}

func TestComparableSetExcludes(t *testing.T) {
	s := New()
	for _, w := range s.ComparableSet() {
		if w.Suite == "MLPerf" {
			t.Errorf("MLPerf workload %s in comparable set", w.FullName())
		}
		if w.Quirk != "" {
			t.Errorf("quirked workload %s in comparable set", w.FullName())
		}
	}
	if len(s.ComparableSet()) < 50 {
		t.Errorf("comparable set suspiciously small: %d", len(s.ComparableSet()))
	}
}

func TestTable4SmallSet(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	s := smallStudy()
	tab, err := Table4(s)
	if err != nil {
		t.Fatal(err)
	}
	out := tab.String()
	if !strings.Contains(out, "gauss_208") || !strings.Contains(out, "3dunet") {
		t.Fatalf("rows missing:\n%s", out)
	}
	// MLPerf rows must star out the Turing/Ampere columns.
	for _, row := range tab.Rows {
		if strings.Contains(row[0], "3dunet") {
			if row[3] != "*" || row[5] != "*" {
				t.Errorf("3dunet Turing/Ampere columns should be '*': %v", row)
			}
		}
	}
}

func TestAblationsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	s := New()
	if tab, err := AblationPCA(s); err != nil || len(tab.Rows) == 0 {
		t.Fatalf("PCA ablation: %v", err)
	}
	if tab, err := AblationClusteringScale(s); err != nil || len(tab.Rows) == 0 {
		t.Fatalf("clustering-scale ablation: %v", err)
	}
	if tab, err := AblationRepPolicy(s); err != nil || len(tab.Rows) == 0 {
		t.Fatalf("rep-policy ablation: %v", err)
	}
}
