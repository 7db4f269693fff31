package experiments

import (
	"errors"
	"fmt"
	"sort"

	"pka/internal/core"
	"pka/internal/gpu"
	"pka/internal/parallel"
	"pka/internal/pkp"
	"pka/internal/profiler"
	"pka/internal/report"
	"pka/internal/silicon"
	"pka/internal/sim"
	"pka/internal/stats"
	"pka/internal/workload"
)

// Figure1 reproduces the paper's opening landscape: per workload, the
// silicon execution time, the time to profile the 12 Table-2 statistics in
// silicon, and the projected time to simulate the whole application —
// spanning microseconds to centuries on a log axis.
func Figure1(s *Study) (*report.Chart, *report.Table, error) {
	type row struct {
		name                string
		silicon, prof, simH float64 // hours
	}
	dev := s.SelectionDevice()
	rows, err := parallel.Map(s.Cfg.Parallelism, s.Workloads(),
		func(_ int, w *workload.Workload) (row, error) {
			var silSec, profSec float64
			next := w.Iterator()
			for k := next(); k != nil; k = next() {
				r, err := silicon.ExecuteKernel(dev, k)
				if err != nil {
					return row{}, err
				}
				silSec += r.TimeSeconds
				profSec += r.TimeSeconds*profiler.DetailedReplayOverhead + profiler.DetailedFixedSeconds
			}
			simH := core.SimHours(int64(float64(w.ApproxWarpInstructions(1<<62)) * dev.ISAScale))
			return row{w.FullName(), silSec / 3600, profSec / 3600, simH}, nil
		})
	if err != nil {
		return nil, nil, err
	}
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].simH < rows[j].simH })

	chart := &report.Chart{
		Title:  "Figure 1: time to execute, profile, and simulate 147 workloads",
		YLabel: "hours",
		LogY:   true,
	}
	var silS, profS, simS []float64
	for _, r := range rows {
		silS = append(silS, r.silicon)
		profS = append(profS, r.prof)
		simS = append(simS, r.simH)
	}
	chart.Series = []report.Series{
		{Name: "Simulation (projected)", Values: simS},
		{Name: "Silicon Profiler", Values: profS},
		{Name: "Silicon", Values: silS},
	}

	tab := &report.Table{
		Title:   "Figure 1 extremes",
		Columns: []string{"Workload", "Silicon", "Profiler", "Simulation (projected)"},
	}
	for _, idx := range []int{0, len(rows) / 2, len(rows) - 1} {
		r := rows[idx]
		tab.AddRow(r.name, report.Hours(r.silicon), report.Hours(r.prof), report.Hours(r.simH))
	}
	tab.Notes = append(tab.Notes,
		fmt.Sprintf("max projected simulation: %s (%s)", report.Hours(rows[len(rows)-1].simH), rows[len(rows)-1].name))
	return chart, tab, nil
}

// Figure4 reproduces the per-group kernel composition after applying PKS
// to the ResNet-50 MLPerf workload: which named kernels land in which
// group, and how many instances each group holds.
func Figure4(s *Study) (*report.Table, error) {
	w := workload.Find("MLPerf/resnet50_64b_inf")
	sel, err := s.Selection(w)
	if err != nil {
		return nil, err
	}
	tab := &report.Table{
		Title:   fmt.Sprintf("Figure 4: per-group kernel composition after PKS on ResNet (K=%d)", sel.K),
		Columns: []string{"Group", "Rep kernel", "Population", "Top kernel names (count)"},
	}
	for gi, g := range sel.Groups {
		type nc struct {
			name string
			n    int
		}
		var ncs []nc
		for name, n := range g.NameCounts {
			ncs = append(ncs, nc{name, n})
		}
		sort.Slice(ncs, func(i, j int) bool {
			if ncs[i].n != ncs[j].n {
				return ncs[i].n > ncs[j].n
			}
			return ncs[i].name < ncs[j].name
		})
		names := ""
		for i, c := range ncs {
			if i >= 4 {
				names += fmt.Sprintf(" +%d more", len(ncs)-4)
				break
			}
			if i > 0 {
				names += ", "
			}
			names += fmt.Sprintf("%s(%d)", c.name, c.n)
		}
		tab.AddRow(fmt.Sprintf("Group %d", gi), g.Representative.Name, fmt.Sprint(g.Count()), names)
	}
	tab.Notes = append(tab.Notes, "compute-heavy and memory-heavy kernels cluster separately; same-named kernels with different launch dims may split")
	return tab, nil
}

// Figure5 reproduces the IPC/L2-miss/DRAM-utilization time series with
// PKP stopping points at s = 2.5, 0.25, and 0.025, for a regular workload
// (atax) and an irregular one (bfs).
func Figure5(s *Study) ([]*report.Chart, *report.Table, error) {
	dev := s.SelectionDevice()
	tab := &report.Table{
		Title:   "Figure 5: PKP stopping points",
		Columns: []string{"Workload", "s", "Stop cycle", "Full cycles", "Proj error %", "Speedup"},
	}
	type fig5Spec struct {
		label string
		wname string
		kid   int
	}
	specs := []fig5Spec{
		{"atax (regular)", "Polybench/atax", 0},
		{"bfs (irregular)", "Rodinia/bfs65536", 8},
	}
	type specOut struct {
		chart *report.Chart
		rows  [][]string
	}
	outs, err := parallel.Map(s.Cfg.Parallelism, specs, func(_ int, spec fig5Spec) (specOut, error) {
		w := workload.Find(spec.wname)
		k := w.Kernel(spec.kid)
		thresholds := []float64{2.5, 0.25, 0.025}
		full, projs, err := pkp.Sweep(sim.New(dev), &k, 250,
			pkp.Options{Threshold: thresholds[0]}, pkp.Options{Threshold: thresholds[1]}, pkp.Options{Threshold: thresholds[2]})
		if err != nil {
			return specOut{}, err
		}
		chart := &report.Chart{
			Title:  "Figure 5: " + spec.label + " — IPC / L2 miss / DRAM util vs time",
			YLabel: "IPC (normalized to peak); rates in [0,1]",
		}
		var ipc, l2, dr []float64
		peak := 1.0
		for _, smp := range full.Trace {
			if smp.IPC > peak {
				peak = smp.IPC
			}
		}
		for _, smp := range full.Trace {
			ipc = append(ipc, smp.IPC/peak)
			l2 = append(l2, smp.L2Miss)
			dr = append(dr, smp.DRAMUtil)
		}
		chart.Series = []report.Series{
			{Name: "IPC/peak", Values: ipc},
			{Name: "L2 miss rate", Values: l2},
			{Name: "DRAM util", Values: dr},
		}
		out := specOut{chart: chart}
		for i, th := range thresholds {
			stop := projs[i].SimulatedCycles
			errPct := stats.AbsPctErr(float64(projs[i].Cycles), float64(full.Cycles))
			speedup := float64(full.Cycles) / float64(stop)
			out.rows = append(out.rows, []string{spec.label, report.F(th, 3), fmt.Sprint(stop),
				fmt.Sprint(full.Cycles), report.F(errPct, 1), report.F(speedup, 2) + "x"})
			chart.Notes = append(chart.Notes,
				fmt.Sprintf("s=%.3f stops at cycle %d (%.0f%% of kernel)", th, stop, 100*float64(stop)/float64(full.Cycles)))
		}
		return out, nil
	})
	if err != nil {
		return nil, nil, err
	}
	var charts []*report.Chart
	for _, out := range outs {
		charts = append(charts, out.chart)
		for _, row := range out.rows {
			tab.AddRow(row...)
		}
	}
	return charts, tab, nil
}

// Figure6 reproduces the simulation-time landscape under full simulation,
// PKS, and PKA across all 147 workloads, sorted by full-simulation time.
func Figure6(s *Study) (*report.Chart, *report.Table, error) {
	dev := s.SelectionDevice()
	type row struct {
		full, pks, pka float64 // projected hours
	}
	rows, err := parallel.Map(s.Cfg.Parallelism, s.Workloads(),
		func(_ int, w *workload.Workload) (row, error) {
			full := core.SimHours(core.TotalWarpWork(dev, w))
			ev, err := s.evaluation(dev, w)
			if err != nil {
				return row{}, err
			}
			return row{full, ev.PKS.SimHours, ev.PKA.SimHours}, nil
		})
	if err != nil {
		return nil, nil, err
	}
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].full < rows[j].full })
	var fullS, pksS, pkaS []float64
	var worstFull, worstPKA float64
	for _, r := range rows {
		fullS = append(fullS, r.full)
		pksS = append(pksS, r.pks)
		pkaS = append(pkaS, r.pka)
		if r.full > worstFull {
			worstFull = r.full
		}
		if r.pka > worstPKA {
			worstPKA = r.pka
		}
	}
	chart := &report.Chart{
		Title:  "Figure 6: simulation time under full simulation, PKS, and PKA",
		YLabel: "projected hours",
		LogY:   true,
		Series: []report.Series{
			{Name: "Full Simulation", Values: fullS},
			{Name: "PKS", Values: pksS},
			{Name: "PKA", Values: pkaS},
		},
	}
	tab := &report.Table{
		Title:   "Figure 6 summary",
		Columns: []string{"Series", "Median", "Max"},
	}
	tab.AddRow("Full Simulation", report.Hours(stats.Median(fullS)), report.Hours(worstFull))
	tab.AddRow("PKS", report.Hours(stats.Median(pksS)), report.Hours(maxOf(pksS)))
	tab.AddRow("PKA", report.Hours(stats.Median(pkaS)), report.Hours(worstPKA))
	tab.Notes = append(tab.Notes, "every workload reduced below one week under PKA")
	return chart, tab, nil
}

// Figure7 reproduces the speedup-over-full-simulation comparison of PKA,
// TBPoint, and the first-N-instructions baseline on the workloads that
// complete in full simulation.
func Figure7(s *Study) (*report.Chart, *report.Table, error) {
	dev := s.SelectionDevice()
	type speedups struct {
		pka, tb, oneB float64
		ok            bool
	}
	perW, err := parallel.Map(s.Cfg.Parallelism, s.ComparableSet(),
		func(_ int, w *workload.Workload) (speedups, error) {
			ev, err := s.Baselines(dev, w)
			if err != nil || ev.Full == nil {
				return speedups{}, err
			}
			pka, tb, oneB := ev.PKA, ev.TBPoint, ev.OneB
			if pka.SimWarpInstrs == 0 || oneB.SimWarpInstrs == 0 || tb.SimWarpInstrs == 0 {
				return speedups{}, nil
			}
			return speedups{pka: pka.SpeedupVsFull, tb: tb.SpeedupVsFull, oneB: oneB.SpeedupVsFull, ok: true}, nil
		})
	if err != nil {
		return nil, nil, err
	}
	var pkaS, tbS, oneBS []float64
	for _, sp := range perW {
		if !sp.ok {
			continue
		}
		pkaS = append(pkaS, sp.pka)
		tbS = append(tbS, sp.tb)
		oneBS = append(oneBS, sp.oneB)
	}
	sort.Float64s(pkaS)
	sort.Float64s(tbS)
	sort.Float64s(oneBS)
	chart := &report.Chart{
		Title:  "Figure 7: simulation speedup over full simulation (sorted per series)",
		YLabel: "speedup (x)",
		LogY:   true,
		Series: []report.Series{
			{Name: fmt.Sprintf("PKA     (geomean %.2fx)", stats.GeoMean(pkaS)), Values: pkaS},
			{Name: fmt.Sprintf("TBPoint (geomean %.2fx)", stats.GeoMean(tbS)), Values: tbS},
			{Name: fmt.Sprintf("1B      (geomean %.2fx)", stats.GeoMean(oneBS)), Values: oneBS},
		},
	}
	tab := &report.Table{
		Title:   "Figure 7 geomean speedups",
		Columns: []string{"Method", "GeoMean speedup", "Apps"},
	}
	tab.AddRow("PKA", report.F(stats.GeoMean(pkaS), 2)+"x", fmt.Sprint(len(pkaS)))
	tab.AddRow("TBPoint", report.F(stats.GeoMean(tbS), 2)+"x", fmt.Sprint(len(tbS)))
	tab.AddRow("1B instructions", report.F(stats.GeoMean(oneBS), 2)+"x", fmt.Sprint(len(oneBS)))
	tab.Notes = append(tab.Notes, "paper: PKA 3.77x, TBPoint 1.76x, 1B 3.85x — PKA should deliver ~2x TBPoint's reduction")
	return chart, tab, nil
}

// Figure8 reproduces the absolute application cycle/IPC error versus
// silicon for full simulation, 1B, PKA, and TBPoint on the same set.
func Figure8(s *Study) (*report.Chart, *report.Table, error) {
	dev := s.SelectionDevice()
	type errRow struct {
		full, oneB, pka, tb float64
		ok                  bool
	}
	perW, err := parallel.Map(s.Cfg.Parallelism, s.ComparableSet(),
		func(_ int, w *workload.Workload) (errRow, error) {
			ev, err := s.Baselines(dev, w)
			if err != nil || ev.Full == nil || ev.TBPoint.SimWarpInstrs == 0 {
				return errRow{}, err
			}
			return errRow{full: ev.Full.ErrorPct, oneB: ev.OneB.ErrorPct, pka: ev.PKA.ErrorPct, tb: ev.TBPoint.ErrorPct, ok: true}, nil
		})
	if err != nil {
		return nil, nil, err
	}
	var fullE, oneBE, pkaE, tbE []float64
	for _, r := range perW {
		if !r.ok {
			continue
		}
		fullE = append(fullE, r.full)
		oneBE = append(oneBE, r.oneB)
		pkaE = append(pkaE, r.pka)
		tbE = append(tbE, r.tb)
	}
	// Sort all series by the full-simulation error, the paper's x order.
	idx := make([]int, len(fullE))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return fullE[idx[a]] < fullE[idx[b]] })
	reorder := func(xs []float64) []float64 {
		out := make([]float64, len(xs))
		for i, j := range idx {
			out[i] = xs[j]
		}
		return out
	}
	fullE, oneBE, pkaE, tbE = reorder(fullE), reorder(oneBE), reorder(pkaE), reorder(tbE)

	chart := &report.Chart{
		Title:  "Figure 8: absolute % cycle error vs silicon (sorted by full-sim error)",
		YLabel: "absolute % error",
		Series: []report.Series{
			{Name: fmt.Sprintf("FullSim (ME %.1f%%)", stats.Mean(fullE)), Values: fullE},
			{Name: fmt.Sprintf("1B      (ME %.1f%%)", stats.Mean(oneBE)), Values: oneBE},
			{Name: fmt.Sprintf("PKA     (ME %.1f%%)", stats.Mean(pkaE)), Values: pkaE},
			{Name: fmt.Sprintf("TBPoint (ME %.1f%%)", stats.Mean(tbE)), Values: tbE},
		},
	}
	tab := &report.Table{
		Title:   "Figure 8 mean absolute errors",
		Columns: []string{"Method", "Mean error %", "Median error %"},
	}
	tab.AddRow("FullSim", report.F(stats.Mean(fullE), 2), report.F(stats.Median(fullE), 2))
	tab.AddRow("1B", report.F(stats.Mean(oneBE), 2), report.F(stats.Median(oneBE), 2))
	tab.AddRow("PKA", report.F(stats.Mean(pkaE), 2), report.F(stats.Median(pkaE), 2))
	tab.AddRow("TBPoint", report.F(stats.Mean(tbE), 2), report.F(stats.Median(tbE), 2))
	tab.Notes = append(tab.Notes, "paper: FullSim 26.7%, 1B 144.1%, PKA 31.1%, TBPoint 27.2% — 1B should be the outlier")
	return chart, tab, nil
}

// Figure9 reproduces the V100-over-RTX2060 relative speedup case study:
// silicon, full simulation, 1B, and PKA must rank architectures alike.
// MLPerf workloads are excluded (the 2060 lacks the memory), as are
// quirked workloads.
func Figure9(s *Study) (*report.Chart, *report.Table, error) {
	return relativeStudy(s, gpu.TuringRTX2060(),
		"Figure 9: V100 speedup over RTX 2060",
		"paper geomeans: silicon 2.29x, full sim 1.87x, 1B 1.72x, PKA 1.88x",
		true)
}

// Figure10 reproduces the 80-vs-40-SM MPS case study on the V100,
// including the MLPerf workloads (for which only silicon/PKA/1B exist).
func Figure10(s *Study) (*report.Chart, *report.Table, error) {
	return relativeStudy(s, s.SelectionDevice().WithSMs(40),
		"Figure 10: V100 80-SM speedup over 40-SM",
		"paper geomeans: silicon 1.24x, full sim 1.20x, 1B 1.32x, PKA 1.22x",
		false)
}

// relativeStudy measures per-workload speedups of the base device over the
// alternative device under each methodology.
func relativeStudy(s *Study, alt gpu.Device, title, note string, excludeMLPerf bool) (*report.Chart, *report.Table, error) {
	base := s.SelectionDevice()
	var eligible []*workload.Workload
	for _, w := range s.Workloads() {
		if w.Quirk != "" {
			continue
		}
		if excludeMLPerf && w.Suite == "MLPerf" {
			continue
		}
		eligible = append(eligible, w)
	}
	type relRow struct {
		sil, pka, oneB, full float64 // speedups; oneB/full zero when absent
		comparable           bool    // full sim feasible on both devices
	}
	perW, err := parallel.Map(s.Cfg.Parallelism, eligible,
		func(_ int, w *workload.Workload) (relRow, error) {
			evBase, err := s.Baselines(base, w)
			if err != nil {
				return relRow{}, err
			}
			evAlt, err := s.Baselines(alt, w)
			if err != nil {
				return relRow{}, err
			}
			r := relRow{sil: cyclesToSec(evAlt.Silicon.Cycles, alt) / cyclesToSec(evBase.Silicon.Cycles, base)}
			r.pka = cyclesToSec(evAlt.PKA.ProjCycles, alt) / cyclesToSec(evBase.PKA.ProjCycles, base)
			if w.Suite != "MLPerf" {
				r.oneB = cyclesToSec(evAlt.OneB.ProjCycles, alt) / cyclesToSec(evBase.OneB.ProjCycles, base)
			}
			if evBase.Full != nil && evAlt.Full != nil {
				r.comparable = true
				r.full = cyclesToSec(evAlt.Full.ProjCycles, alt) / cyclesToSec(evBase.Full.ProjCycles, base)
			}
			return r, nil
		})
	if err != nil {
		return nil, nil, err
	}

	var silS, fullS, oneBS, pkaS []float64
	var silAll, oneBAll, pkaAll []float64
	for _, r := range perW {
		silAll = append(silAll, r.sil)
		pkaAll = append(pkaAll, r.pka)
		if r.oneB > 0 {
			oneBAll = append(oneBAll, r.oneB)
		}
		if !r.comparable {
			continue
		}
		silS = append(silS, r.sil)
		fullS = append(fullS, r.full)
		if r.oneB > 0 {
			oneBS = append(oneBS, r.oneB)
		}
		pkaS = append(pkaS, r.pka)
	}

	sortAll := func(xs []float64) []float64 { sort.Float64s(xs); return xs }
	chart := &report.Chart{
		Title:  title + " (full-sim-comparable apps, sorted per series)",
		YLabel: "speedup (x)",
		Series: []report.Series{
			{Name: fmt.Sprintf("Silicon  (geomean %.2fx)", stats.GeoMean(silS)), Values: sortAll(append([]float64(nil), silS...))},
			{Name: fmt.Sprintf("Full Sim (geomean %.2fx)", stats.GeoMean(fullS)), Values: sortAll(append([]float64(nil), fullS...))},
			{Name: fmt.Sprintf("1B       (geomean %.2fx)", stats.GeoMean(oneBS)), Values: sortAll(append([]float64(nil), oneBS...))},
			{Name: fmt.Sprintf("PKA      (geomean %.2fx)", stats.GeoMean(pkaS)), Values: sortAll(append([]float64(nil), pkaS...))},
		},
		Notes: []string{note},
	}
	// Each series pairs app i with app i's silicon; an empty comparable set
	// renders 0.00.
	var mae [3]float64
	for i, xs := range [][]float64{fullS, oneBS, pkaS} {
		m, err := stats.MAPE(xs, silS)
		if err != nil && !errors.Is(err, stats.ErrEmpty) {
			return nil, nil, fmt.Errorf("experiments: %s: %s speedups against silicon's: %w", title, [...]string{"full-sim", "1B", "PKA"}[i], err)
		}
		mae[i] = m
	}
	tab := &report.Table{
		Title:   title + " — geomeans",
		Columns: []string{"Method", "GeoMean (comparable)", "GeoMean (all)", "MAE wrt silicon %"},
	}
	tab.AddRow("Silicon", report.F(stats.GeoMean(silS), 2)+"x", report.F(stats.GeoMean(silAll), 2)+"x", "-")
	tab.AddRow("Full Simulation", report.F(stats.GeoMean(fullS), 2)+"x", "*", report.F(mae[0], 2))
	tab.AddRow("1B", report.F(stats.GeoMean(oneBS), 2)+"x", report.F(stats.GeoMean(oneBAll), 2)+"x", report.F(mae[1], 2))
	tab.AddRow("PKA", report.F(stats.GeoMean(pkaS), 2)+"x", report.F(stats.GeoMean(pkaAll), 2)+"x", report.F(mae[2], 2))
	tab.Notes = append(tab.Notes, note)
	return chart, tab, nil
}

func cyclesToSec(cycles int64, dev gpu.Device) float64 {
	return float64(cycles) / (float64(dev.CoreClockMHz) * 1e6)
}

func maxOf(xs []float64) float64 {
	var m float64
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}
