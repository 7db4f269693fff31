package experiments

import (
	"fmt"
	"time"

	"pka/internal/classify"
	"pka/internal/cluster"
	"pka/internal/parallel"
	"pka/internal/pkp"
	"pka/internal/pks"
	"pka/internal/profiler"
	"pka/internal/report"
	"pka/internal/sim"
	"pka/internal/stats"
	"pka/internal/workload"
)

// ablationSet is a representative cross-section of workloads: multi-kernel
// regular, irregular, shrinking-grid, iterative-stencil, and dense-GEMM.
func ablationSet() []*workload.Workload {
	var out []*workload.Workload
	for _, name := range []string{
		"Rodinia/gauss_208",
		"Rodinia/bfs65536",
		"Parboil/histo",
		"Polybench/fdtd2d",
		"Polybench/gramschmidt",
		"Rodinia/srad_v1",
		"Cutlass/1024x256x1024_sgemm",
	} {
		if w := workload.Find(name); w != nil {
			out = append(out, w)
		}
	}
	return out
}

// addRows fans fn out over the ablation workload set and appends the
// resulting rows to tab in workload order, keeping the rendered table
// independent of the study's parallelism.
func addRows(s *Study, tab *report.Table, fn func(w *workload.Workload) ([]string, error)) (*report.Table, error) {
	rows, err := parallel.Map(s.Cfg.Parallelism, ablationSet(),
		func(_ int, w *workload.Workload) ([]string, error) { return fn(w) })
	if err != nil {
		return nil, err
	}
	for _, row := range rows {
		tab.AddRow(row...)
	}
	return tab, nil
}

// AblationRepPolicy compares the three representative-selection policies
// (paper Section 3.1: random is inconsistent; first ≈ center; first is
// cheapest to trace).
func AblationRepPolicy(s *Study) (*report.Table, error) {
	tab := &report.Table{
		Title:   "Ablation: representative policy (PKS silicon selection error %)",
		Columns: []string{"Workload", "first", "center", "random(seed1)", "random(seed2)"},
	}
	dev := s.SelectionDevice()
	return addRows(s, tab, func(w *workload.Workload) ([]string, error) {
		row := []string{w.FullName()}
		for _, spec := range []struct {
			pol  pks.RepPolicy
			seed uint64
		}{
			{pks.RepFirstChronological, 1},
			{pks.RepClusterCenter, 1},
			{pks.RepRandom, 1},
			{pks.RepRandom, 99},
		} {
			opts := s.Cfg.PKS
			opts.Representative = spec.pol
			opts.Seed = spec.seed
			sel, err := pks.Select(dev, w, opts)
			if err != nil {
				return nil, err
			}
			row = append(row, report.F(sel.SelectionErrorPct, 2))
		}
		return row, nil
	})
}

// pkpAblation is the table both PKP ablations share: per workload, the most
// populous group's representative simulated once to completion with one
// projector per option set riding along, and a cell per projector.
func pkpAblation(s *Study, tab *report.Table, opts []pkp.Options, cell func(errPct float64, full *sim.KernelResult, proj pkp.Projection) string) (*report.Table, error) {
	dev := s.SelectionDevice()
	return addRows(s, tab, func(w *workload.Workload) ([]string, error) {
		sel, err := s.Selection(w)
		if err != nil {
			return nil, err
		}
		best := 0
		for gi, g := range sel.Groups {
			if g.Count() > sel.Groups[best].Count() {
				best = gi
			}
		}
		k := w.Kernel(sel.Groups[best].RepIndex)
		full, projs, err := pkp.Sweep(sim.New(dev), &k, 0, opts...)
		if err != nil {
			return nil, err
		}
		row := []string{w.FullName()}
		for _, proj := range projs {
			row = append(row, cell(stats.AbsPctErr(float64(proj.Cycles), float64(full.Cycles)), full, proj))
		}
		return row, nil
	})
}

// AblationPKPThreshold sweeps the stability threshold s across the
// paper's three values, reporting projection error and speedup per
// workload (the Figure 5 tradeoff, but aggregated).
func AblationPKPThreshold(s *Study) (*report.Table, error) {
	tab := &report.Table{
		Title:   "Ablation: PKP stability threshold s (kernel projection error % / speedup)",
		Columns: []string{"Workload", "s=2.5", "s=0.25", "s=0.025"},
	}
	return pkpAblation(s, tab, []pkp.Options{{Threshold: 2.5}, {Threshold: 0.25}, {Threshold: 0.025}},
		func(errPct float64, full *sim.KernelResult, proj pkp.Projection) string {
			speedup := float64(full.Cycles) / float64(proj.SimulatedCycles)
			return fmt.Sprintf("%s%% / %sx", report.F(errPct, 1), report.F(speedup, 1))
		})
}

// AblationWaveConstraint measures PKP with and without the full-wave
// requirement, the contention-capture argument of Section 3.2.
func AblationWaveConstraint(s *Study) (*report.Table, error) {
	tab := &report.Table{
		Title:   "Ablation: PKP wave constraint (projection error % / stop cycle)",
		Columns: []string{"Workload", "with wave", "without wave"},
	}
	return pkpAblation(s, tab, []pkp.Options{{}, {DisableWaveConstraint: true}},
		func(errPct float64, _ *sim.KernelResult, proj pkp.Projection) string {
			return fmt.Sprintf("%s%% @ %d", report.F(errPct, 1), proj.SimulatedCycles)
		})
}

// AblationPCA compares selection with PCA ahead of K-Means against raw
// standardized features (the curse-of-dimensionality argument).
func AblationPCA(s *Study) (*report.Table, error) {
	dev := s.SelectionDevice()
	tab := &report.Table{
		Title:   "Ablation: PCA before K-Means (error % @ K)",
		Columns: []string{"Workload", "with PCA", "without PCA"},
	}
	return addRows(s, tab, func(w *workload.Workload) ([]string, error) {
		row := []string{w.FullName()}
		for _, disable := range []bool{false, true} {
			opts := s.Cfg.PKS
			opts.DisablePCA = disable
			sel, err := pks.Select(dev, w, opts)
			if err != nil {
				return nil, err
			}
			row = append(row, fmt.Sprintf("%s%% @ K=%d", report.F(sel.SelectionErrorPct, 2), sel.K))
		}
		return row, nil
	})
}

// AblationClusteringScale contrasts K-Means and hierarchical clustering
// runtimes as the kernel count grows — the paper's core scalability
// argument against TBPoint-style clustering.
func AblationClusteringScale(s *Study) (*report.Table, error) {
	rng := stats.NewRNG(17)
	tab := &report.Table{
		Title:   "Ablation: clustering scalability (wall time)",
		Columns: []string{"Points", "K-Means (K=10)", "Hierarchical (avg-linkage)"},
	}
	for _, n := range []int{200, 1000, 4000, 12000} {
		pts := make([][]float64, n)
		for i := range pts {
			pts[i] = []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		}
		t0 := time.Now()
		if _, err := cluster.KMeans(pts, 10, cluster.KMeansOptions{Seed: 5}); err != nil {
			return nil, err
		}
		kmT := time.Since(t0)

		hierCell := "intractable (refused)"
		if n <= 4000 {
			t0 = time.Now()
			if _, _, err := cluster.Agglomerative(pts, 0.5); err != nil {
				return nil, err
			}
			hierCell = time.Since(t0).Round(time.Millisecond).String()
		}
		tab.AddRow(fmt.Sprint(n), kmT.Round(time.Millisecond).String(), hierCell)
	}
	tab.Notes = append(tab.Notes,
		fmt.Sprintf("hierarchical clustering is refused outright beyond %d points (quadratic memory); K-Means handles millions", cluster.MaxHierarchicalPoints))
	return tab, nil
}

// AblationClassifier compares the two-level mapping models on a workload
// forced into two-level profiling.
func AblationClassifier(s *Study) (*report.Table, error) {
	dev := s.SelectionDevice()
	w := workload.Find("Polybench/gramschmidt")
	opts := s.Cfg.PKS
	opts.MaxDetailed = w.N / 4
	sel, err := pks.Select(dev, w, opts)
	if err != nil {
		return nil, err
	}
	// Rebuild the labeled training data the two-level pass used: detailed
	// prefix features with group labels by nearest representative count
	// is internal; instead, train each model on a detailed re-profile and
	// measure holdout accuracy directly.
	var X [][]float64
	var y []int
	for i := 0; i < sel.DetailedKernels; i++ {
		k := w.Kernel(i)
		rec, _, err := profiler.Light(dev, &k)
		if err != nil {
			return nil, err
		}
		X = append(X, profiler.FeaturesOfLight(rec))
		// Label by which group's representative the kernel's silicon
		// cycles sit closest to — a observable proxy for the clustering
		// label that treats each model identically.
		best, bestD := 0, int64(1<<62)
		for gi, g := range sel.Groups {
			d := rec.Cycles - g.Representative.Cycles
			if d < 0 {
				d = -d
			}
			if d < bestD {
				best, bestD = gi, d
			}
		}
		y = append(y, best)
	}
	var trX, teX [][]float64
	var trY, teY []int
	for i := range X {
		if i%5 == 4 {
			teX, teY = append(teX, X[i]), append(teY, y[i])
		} else {
			trX, trY = append(trX, X[i]), append(trY, y[i])
		}
	}
	tab := &report.Table{
		Title:   "Ablation: two-level mapping classifier (holdout accuracy on gramschmidt)",
		Columns: []string{"Model", "Accuracy"},
	}
	models := []classify.Classifier{
		classify.NewSGD(3),
		classify.NewGaussianNB(),
		classify.NewMLP(3),
		classify.NewEnsemble(3),
	}
	for _, m := range models {
		if err := m.Fit(trX, trY, len(sel.Groups)); err != nil {
			return nil, err
		}
		tab.AddRow(m.Name(), report.F(classify.Accuracy(m, teX, teY), 3))
	}
	return tab, nil
}
