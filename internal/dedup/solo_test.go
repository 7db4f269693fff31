package dedup

import (
	"math"
	"reflect"
	"testing"

	"pka/internal/core"
	"pka/internal/gpu"
	"pka/internal/parallel"
	"pka/internal/pks"
	"pka/internal/sampling"
	"pka/internal/workload"
)

// Solo PKS is suite dedup over a suite of one: the two selections share
// one clustering core and the two runs one fold, so on a single workload
// they must agree exactly — with and without two-level profiling, with
// and without PKP. This is the fence that keeps the shared core honest.
func TestSuiteOfOneMatchesSolo(t *testing.T) {
	dev := gpu.VoltaV100()
	cfg := core.Config{Device: dev, Exec: sampling.NewExec(parallel.NewScheduler(0), nil)}
	cases := []struct {
		name        string
		maxDetailed int
		run         bool
	}{
		{"Rodinia/gauss_208", 0, false},
		{"Rodinia/gauss_208", 40, false},
		{"Polybench/fdtd2d", 0, true},
		{"Polybench/fdtd2d", 40, true},
		{"Parboil/histo", 40, true},
		{"Rodinia/srad_v1", 0, false},
		{"Polybench/atax", 0, false},
	}
	for _, tc := range cases {
		w := workload.Find(tc.name)
		if w == nil {
			t.Fatalf("missing workload %s", tc.name)
		}
		ws := []*workload.Workload{w}
		sel, err := pks.Select(dev, w, pks.Options{MaxDetailed: tc.maxDetailed})
		if err != nil {
			t.Fatal(err)
		}
		suite, err := Select(dev, ws, Options{MaxDetailedPerApp: tc.maxDetailed})
		if err != nil {
			t.Fatal(err)
		}
		if tc.maxDetailed > 0 && !(sel.TwoLevel && suite.Apps[0].TwoLevel) {
			t.Fatalf("%s cap %d: two-level did not engage", tc.name, tc.maxDetailed)
		}
		app := suite.Apps[0]
		if suite.K != sel.K || len(suite.Reps) != len(sel.Groups) {
			t.Fatalf("%s cap %d: suite K=%d (%d reps), solo K=%d", tc.name, tc.maxDetailed, suite.K, len(suite.Reps), sel.K)
		}
		for g, grp := range sel.Groups {
			if suite.Reps[g].KernelID != grp.RepIndex || app.GroupCounts[g] != grp.Count() {
				t.Errorf("%s cap %d group %d: suite rep %d x%d, solo rep %d x%d", tc.name, tc.maxDetailed, g,
					suite.Reps[g].KernelID, app.GroupCounts[g], grp.RepIndex, grp.Count())
			}
		}
		if app.ProjectedCycles != sel.ProjectedCycles || app.SiliconTotalCycles != sel.SiliconTotalCycles {
			t.Errorf("%s cap %d: suite projects %d of %d cycles, solo %d of %d", tc.name, tc.maxDetailed,
				app.ProjectedCycles, app.SiliconTotalCycles, sel.ProjectedCycles, sel.SiliconTotalCycles)
		}
		if !reflect.DeepEqual(suite.SweepErrors, sel.SweepErrors) {
			t.Errorf("%s cap %d: sweep traces differ: suite %v, solo %v", tc.name, tc.maxDetailed, suite.SweepErrors, sel.SweepErrors)
		}
		if !tc.run {
			continue
		}
		for _, usePKP := range []bool{false, true} {
			solo, err := core.RunSampled(cfg, w, sel, usePKP)
			if err != nil {
				t.Fatal(err)
			}
			run, err := Run(cfg, ws, suite, usePKP)
			if err != nil {
				t.Fatal(err)
			}
			got := run.Apps[0]
			if got.ProjCycles != solo.ProjCycles ||
				math.Float64bits(got.IPC) != math.Float64bits(solo.IPC) ||
				math.Float64bits(got.DRAMUtil) != math.Float64bits(solo.DRAMUtil) ||
				got.Capped != solo.Capped || run.Capped != solo.Capped ||
				run.SimWarpInstrs != solo.SimWarpInstrs {
				t.Errorf("%s cap %d pkp=%v: suite run %+v (suite work %d), solo %+v", tc.name, tc.maxDetailed, usePKP,
					got, run.SimWarpInstrs, solo)
			}
		}
	}
}
