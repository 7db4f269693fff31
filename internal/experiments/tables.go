package experiments

import (
	"fmt"
	"sort"
	"strings"

	"pka/internal/gpu"
	"pka/internal/parallel"
	"pka/internal/report"
	"pka/internal/stats"
	"pka/internal/workload"
)

// Table3 reproduces the selection-example table: for a handful of
// workloads, the kernel IDs PKS selects and the population of each group.
func Table3(s *Study) (*report.Table, error) {
	tab := &report.Table{
		Title:   "Table 3: Principal Kernel Selection output examples (target error 5%)",
		Columns: []string{"Suite", "Workload", "Selected kernel IDs", "Group counts"},
	}
	names := []string{
		"Rodinia/gauss_208",
		"Rodinia/bfs65536",
		"Parboil/histo",
		"Parboil/cutcp",
		"Polybench/fdtd2d",
		"Polybench/gramschmidt",
		"Cutlass/640x32x640_wgemm",
		"Cutlass/1024x1024x1024_sgemm",
	}
	rows, err := parallel.Map(s.Cfg.Parallelism, names, func(_ int, name string) ([]string, error) {
		w := workload.Find(name)
		if w == nil {
			return nil, fmt.Errorf("table3: workload %s missing", name)
		}
		sel, err := s.Selection(w)
		if err != nil {
			return nil, err
		}
		ids := make([]string, 0, sel.K)
		counts := make([]string, 0, sel.K)
		groups := make([]int, 0, len(sel.Groups))
		for gi := range sel.Groups {
			groups = append(groups, gi)
		}
		sort.Slice(groups, func(a, b int) bool {
			return sel.Groups[groups[a]].RepIndex < sel.Groups[groups[b]].RepIndex
		})
		for _, gi := range groups {
			g := sel.Groups[gi]
			ids = append(ids, fmt.Sprint(g.RepIndex))
			counts = append(counts, fmt.Sprint(g.Count()))
		}
		return []string{w.Suite, w.Name, strings.Join(ids, ","), strings.Join(counts, ",")}, nil
	})
	if err != nil {
		return nil, err
	}
	for _, row := range rows {
		tab.AddRow(row...)
	}
	return tab, nil
}

// table4Row carries one (possibly aggregated) Table-4 line.
type table4Row struct {
	label string
	n     int // workloads aggregated

	voltaErr, voltaSU   float64
	turingErr, turingSU float64
	ampereErr, ampereSU float64
	simErr              float64
	pksErr, pksHours    float64
	pksSU               float64
	pkaErr, pkaHours    float64
	pkaSU               float64
	dramFull, dramPKA   float64

	noTuringAmpere bool // "*" columns
	noSim          bool
	noFullSim      bool // sim error/DRAM-full unavailable (infeasible)
}

// Table4 reproduces the paper's big results table: PKS silicon error and
// speedup on Volta/Turing/Ampere, the simulator's own error, PKS and PKA
// simulation error with projected times, and full-vs-PKA DRAM utilization.
// Rodinia/Parboil/Polybench/MLPerf report per application; Cutlass and
// DeepBench report sub-family means, as the paper does.
func Table4(s *Study) (*report.Table, error) {
	turing := gpu.TuringRTX2060()
	ampere := gpu.AmpereRTX3070()

	// Fan the expensive per-workload pipelines out across the pool; the
	// serial pass below only shuffles the precomputed rows, so row order
	// (and therefore rendered output) matches a serial run byte for byte.
	perWorkload, err := parallel.Map(s.Cfg.Parallelism, s.Workloads(),
		func(_ int, w *workload.Workload) (table4Row, error) {
			r, err := table4For(s, w, turing, ampere)
			if err != nil {
				return r, fmt.Errorf("table4: %s: %w", w.FullName(), err)
			}
			return r, nil
		})
	if err != nil {
		return nil, err
	}

	var rows []table4Row
	groups := map[string][]table4Row{}
	var groupOrder []string

	for i, w := range s.Workloads() {
		r := perWorkload[i]
		switch w.Suite {
		case "Cutlass", "DeepBench":
			fam := w.Suite + " " + family(w.Name)
			if _, ok := groups[fam]; !ok {
				groupOrder = append(groupOrder, fam)
			}
			groups[fam] = append(groups[fam], r)
		default:
			rows = append(rows, r)
		}
	}
	for _, fam := range groupOrder {
		rows = append(rows, aggregate(fam, groups[fam]))
	}

	tab := &report.Table{
		Title: "Table 4: cycle error and speedup for PKS in silicon and simulation; PKA in simulation",
		Columns: []string{
			"Application",
			"VoltaErr%", "VoltaSU",
			"TuringErr%", "TuringSU",
			"AmpereErr%", "AmpereSU",
			"SimErr%",
			"PKSErr%", "PKS SimTime(SU)",
			"PKAErr%", "PKA SimTime(SU)",
			"DRAM Full", "DRAM PKA",
		},
	}
	star := "*"
	su := func(v float64) string { return report.F(v, 1) + "x" }
	for _, r := range rows {
		label := r.label
		if r.n > 1 {
			label = fmt.Sprintf("%s (mean of %d)", r.label, r.n)
		}
		cells := []string{label, report.F(r.voltaErr, 1), su(r.voltaSU)}
		if r.noTuringAmpere {
			cells = append(cells, star, star, star, star)
		} else {
			cells = append(cells, report.F(r.turingErr, 1), su(r.turingSU),
				report.F(r.ampereErr, 1), su(r.ampereSU))
		}
		if r.noSim {
			cells = append(cells, star, star, star, star, star, star, star)
		} else {
			simErr := star
			dramFull := star
			if !r.noFullSim {
				simErr = report.F(r.simErr, 1)
				dramFull = report.F(r.dramFull*100, 1)
			}
			cells = append(cells,
				simErr,
				report.F(r.pksErr, 1), report.Hours(r.pksHours)+" ("+su(r.pksSU)+")",
				report.F(r.pkaErr, 1), report.Hours(r.pkaHours)+" ("+su(r.pkaSU)+")",
				dramFull, report.F(r.dramPKA*100, 1),
			)
		}
		tab.AddRow(cells...)
	}
	tab.Notes = append(tab.Notes,
		"'*' = no data: trace/profile kernel-count mismatch (myocyte, cuDNN autotune), MLPerf memory limits on Turing/Ampere, or full simulation infeasible",
		"SimTime is projected at the modeled Accel-Sim rate; SU is simulated-work reduction vs full simulation")
	return tab, nil
}

// table4For computes one workload's row.
func table4For(s *Study, w *workload.Workload, turing, ampere gpu.Device) (table4Row, error) {
	r := table4Row{label: w.FullName(), n: 1}

	if w.Quirk == "trace-mismatch" {
		r.noTuringAmpere = true
		r.noSim = true
		return r, nil
	}

	sel, err := s.Selection(w)
	if err != nil {
		return r, err
	}
	r.voltaErr = sel.SelectionErrorPct
	r.voltaSU = sel.SiliconSpeedup

	// Cross-generation silicon: MLPerf does not fit on the consumer
	// cards; cuDNN TensorCore training mismatches there too.
	if w.Suite == "MLPerf" || w.Quirk == "cudnn-autotune-tc" {
		r.noTuringAmpere = true
	} else {
		tg, err := s.CrossGen(turing, w)
		if err != nil {
			return r, err
		}
		r.turingErr, r.turingSU = tg.ErrorPct(), tg.Speedup()
		ag, err := s.CrossGen(ampere, w)
		if err != nil {
			return r, err
		}
		r.ampereErr, r.ampereSU = ag.ErrorPct(), ag.Speedup()
	}

	// Simulation columns: the CUDA-core cuDNN training apps lose their
	// simulation data to the autotune mismatch.
	if w.Quirk == "cudnn-autotune" {
		r.noSim = true
		return r, nil
	}
	ev, err := s.evaluation(s.SelectionDevice(), w)
	if err != nil {
		return r, err
	}
	if ev.Full == nil {
		r.noFullSim = true
	} else {
		r.simErr, r.dramFull = ev.Full.ErrorPct, ev.Full.DRAMUtil
	}
	r.pksErr, r.pksHours, r.pksSU = ev.PKS.ErrorPct, ev.PKS.SimHours, ev.PKS.SpeedupVsFull
	r.pkaErr, r.pkaHours, r.pkaSU = ev.PKA.ErrorPct, ev.PKA.SimHours, ev.PKA.SpeedupVsFull
	r.dramPKA = ev.PKA.DRAMUtil
	return r, nil
}

// family strips the trailing input index from a DeepBench/Cutlass workload
// name ("conv_train_tc_3" -> "conv_train_tc"; "640x32x640_sgemm" ->
// "sgemm").
func family(name string) string {
	if i := strings.LastIndexByte(name, '_'); i >= 0 {
		suffix := name[i+1:]
		if suffix == "sgemm" || suffix == "wgemm" {
			return suffix
		}
		return name[:i]
	}
	return name
}

// aggregate means the numeric columns of a sub-family, propagating "*"
// when every member lacks the column.
func aggregate(label string, rs []table4Row) table4Row {
	out := table4Row{label: label, n: len(rs), noTuringAmpere: true, noSim: true, noFullSim: true}
	var ta, sim, fullN int
	for _, r := range rs {
		out.voltaErr += r.voltaErr
		out.voltaSU += r.voltaSU
		if !r.noTuringAmpere {
			ta++
			out.turingErr += r.turingErr
			out.turingSU += r.turingSU
			out.ampereErr += r.ampereErr
			out.ampereSU += r.ampereSU
		}
		if !r.noSim {
			sim++
			out.pksErr += r.pksErr
			out.pksHours += r.pksHours
			out.pksSU += r.pksSU
			out.pkaErr += r.pkaErr
			out.pkaHours += r.pkaHours
			out.pkaSU += r.pkaSU
			out.dramPKA += r.dramPKA
			if !r.noFullSim {
				fullN++
				out.simErr += r.simErr
				out.dramFull += r.dramFull
			}
		}
	}
	n := float64(len(rs))
	out.voltaErr /= n
	out.voltaSU /= n
	if ta > 0 {
		out.noTuringAmpere = false
		out.turingErr /= float64(ta)
		out.turingSU /= float64(ta)
		out.ampereErr /= float64(ta)
		out.ampereSU /= float64(ta)
	}
	if sim > 0 {
		out.noSim = false
		out.pksErr /= float64(sim)
		out.pksSU /= float64(sim)
		out.pkaErr /= float64(sim)
		out.pkaSU /= float64(sim)
		out.dramPKA /= float64(sim)
		// Hours aggregate as totals-per-app means.
		out.pksHours /= float64(sim)
		out.pkaHours /= float64(sim)
	}
	if fullN > 0 {
		out.noFullSim = false
		out.simErr /= float64(fullN)
		out.dramFull /= float64(fullN)
	}
	return out
}

// Table4SuiteSummary condenses Table 4 into per-suite means — the shape
// the paper's conclusion quotes (Rodinia 7.2x @ 12.6% ... MLPerf 1987x @
// 28.5%).
func Table4SuiteSummary(s *Study) (*report.Table, error) {
	turing := gpu.TuringRTX2060()
	ampere := gpu.AmpereRTX3070()
	type acc struct {
		errs, sus []float64
	}
	var eligible []*workload.Workload
	for _, w := range s.Workloads() {
		if w.Quirk == "" {
			eligible = append(eligible, w)
		}
	}
	perWorkload, err := parallel.Map(s.Cfg.Parallelism, eligible,
		func(_ int, w *workload.Workload) (table4Row, error) {
			return table4For(s, w, turing, ampere)
		})
	if err != nil {
		return nil, err
	}
	suites := map[string]*acc{}
	var order []string
	for i, w := range eligible {
		r := perWorkload[i]
		a, ok := suites[w.Suite]
		if !ok {
			a = &acc{}
			suites[w.Suite] = a
			order = append(order, w.Suite)
		}
		a.errs = append(a.errs, r.voltaErr)
		a.sus = append(a.sus, r.voltaSU)
	}
	tab := &report.Table{
		Title:   "Table 4 suite summary: PKS silicon error and geomean speedup (Volta)",
		Columns: []string{"Suite", "Mean error %", "GeoMean speedup"},
	}
	for _, suite := range order {
		a := suites[suite]
		tab.AddRow(suite, report.F(stats.Mean(a.errs), 1), report.F(stats.GeoMean(a.sus), 1)+"x")
	}
	return tab, nil
}
