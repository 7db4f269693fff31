// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 5) from the reproduced system: Figure 1 (time
// landscape), Table 3 (selection examples), Figure 4 (ResNet group
// composition), Figure 5 (PKP stopping points), Figure 6 (simulation
// times), Figures 7-8 (speedup and error versus TBPoint and 1B), Table 4
// (the full per-application results), and Figures 9-10 (relative-accuracy
// case studies), plus the ablations DESIGN.md calls out.
//
// A Study memoizes every expensive artifact — PKS and TBPoint selections,
// cross-device projections, evaluations (full, PKS and PKA simulation, and the
// 1B and TBPoint baselines riding the full pass) — keyed by
// device and workload in per-key singleflight caches, so the figures share
// work when generated together and generators can fan per-workload
// computation out across a bounded worker pool (Cfg.Parallelism; see
// DESIGN.md's concurrency-model section) without ever computing an
// artifact twice. Each per-workload pipeline stays single-threaded and
// deterministic, so parallel and serial runs render byte-identical output.
package experiments

import (
	"errors"
	"sync"

	"pka/internal/core"
	"pka/internal/gpu"
	"pka/internal/obs"
	"pka/internal/parallel"
	"pka/internal/pks"
	"pka/internal/sampling"
	"pka/internal/tbpoint"
	"pka/internal/workload"
)

// Study owns the memoized state behind the experiment generators. All
// accessors are safe for concurrent use: each artifact kind lives in a
// singleflight cache, so concurrent callers asking for the same
// (device, workload) artifact block on one computation instead of
// duplicating it.
type Study struct {
	// Cfg is the base configuration; Cfg.Device is the selection machine
	// (Volta, as in the paper). Cfg.Parallelism bounds the generators'
	// fan-out (0 = GOMAXPROCS, 1 = serial).
	Cfg core.Config

	mu        sync.Mutex
	workloads []*workload.Workload

	// ex is the default executor Exec builds when Cfg.Exec is nil.
	ex *sampling.Exec

	selections parallel.Cache[string, *pks.Selection]
	crossGen   parallel.Cache[string, pks.CrossGenResult]
	// evaluations holds the core evaluations per (device, workload), with the
	// Volta selection: a complete one, which Full and Sampled read their
	// fields off, and one with the baselines, which Baselines returns.
	evaluations parallel.Cache[string, *core.Evaluation]
	tbSels      parallel.Cache[string, *tbpoint.Selection] // nil value = too large
}

// New returns a Study with the paper's configuration: selection on a
// Volta V100, 5% PKS target, s = 0.25, n = 3000.
func New() *Study {
	return &Study{Cfg: core.Config{Device: gpu.VoltaV100()}}
}

// Workloads returns the 147-workload study set (cached).
func (s *Study) Workloads() []*workload.Workload {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.workloads == nil {
		s.workloads = workload.All()
	}
	return s.workloads
}

// SetWorkloads restricts the study to an explicit workload list — used by
// tests and quick-look runs; the full suite defaults to all 147.
func (s *Study) SetWorkloads(ws []*workload.Workload) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.workloads = ws
}

// SelectionDevice returns the device selections are made on.
func (s *Study) SelectionDevice() gpu.Device { return s.Cfg.Device }

// Exec returns the kernel-task executor every generator shares, so kernel
// simulations land on one bounded scheduler (longest task first) and share
// one outcome cache. It is Cfg.Exec when the caller assembled a ladder
// (artifact store, shard, ...); otherwise a scheduler-only
// executor of width Cfg.Parallelism, built on first call.
func (s *Study) Exec() *sampling.Exec {
	if s.Cfg.Exec != nil {
		return s.Cfg.Exec
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ex == nil {
		s.ex = sampling.NewExec(parallel.NewScheduler(s.Cfg.Parallelism), nil)
	}
	return s.ex
}

// CacheStats reports hit/miss counters for the study's own per-artifact
// singleflight caches, the ones above the Exec ladder (whose families
// Exec.CacheStats reports). The map is shaped for obs.RegisterCacheStats.
func (s *Study) CacheStats() map[string]obs.CacheCounts {
	out := map[string]obs.CacheCounts{}
	add := func(family string, stats func() (hits, misses uint64)) {
		h, m := stats()
		out[family] = obs.CacheCounts{Hits: h, Misses: m}
	}
	add("selections", s.selections.Stats)
	add("crossgen", s.crossGen.Stats)
	add("evaluations", s.evaluations.Stats)
	add("tbpoint_selections", s.tbSels.Stats)
	return out
}

func key(dev gpu.Device, w *workload.Workload) string { return dev.Name + "|" + w.FullName() }

// Selection returns the (cached) Volta PKS selection for the workload.
func (s *Study) Selection(w *workload.Workload) (*pks.Selection, error) {
	return s.selections.Do(w.FullName(), func() (*pks.Selection, error) {
		sp := s.Cfg.Obs.StartSpan("pks-select", w.FullName())
		defer sp.End()
		return core.Select(s.Cfg, w)
	})
}

// CrossGen evaluates the Volta selection on another device's silicon.
func (s *Study) CrossGen(dev gpu.Device, w *workload.Workload) (pks.CrossGenResult, error) {
	return s.crossGen.Do(key(dev, w), func() (pks.CrossGenResult, error) {
		sel, err := s.Selection(w)
		if err != nil {
			return pks.CrossGenResult{}, err
		}
		return pks.ProjectOnDevice(dev, w, sel)
	})
}

// evaluation returns the (cached) complete evaluation of the workload on the
// device with the Volta selection: one scan, and each principal kernel
// simulated once for the full, PKS and PKA passes, with errors against that
// device's silicon.
func (s *Study) evaluation(dev gpu.Device, w *workload.Workload) (*core.Evaluation, error) {
	return s.evaluations.Do(key(dev, w), func() (*core.Evaluation, error) {
		return s.evaluate(dev, w, core.CompletePlan())
	})
}

// Baselines returns the (cached) evaluation Figures 7–10 read: outside
// MLPerf, the complete one plus 1B and, on the selection device, TBPoint
// within its scaling wall. Their tasks ride the full pass.
func (s *Study) Baselines(dev gpu.Device, w *workload.Workload) (*core.Evaluation, error) {
	if w.Suite == "MLPerf" {
		return s.evaluation(dev, w)
	}
	return s.evaluations.Do(key(dev, w)+"|baselines", func() (*core.Evaluation, error) {
		plan := core.CompletePlan()
		plan.Passes = append(plan.Passes, sampling.ModeFirstN)
		if dev == s.SelectionDevice() {
			tb, err := s.TBPoint(w)
			if err != nil {
				return nil, err
			}
			if tb != nil {
				plan.Passes, plan.TBPoint = append(plan.Passes, sampling.ModeBlocks), tb
			}
		}
		return s.evaluate(dev, w, plan)
	})
}

// evaluate runs plan on the workload on the device with the Volta selection.
func (s *Study) evaluate(dev gpu.Device, w *workload.Workload, plan core.Plan) (*core.Evaluation, error) {
	sel, err := s.Selection(w)
	if err != nil {
		return nil, err
	}
	cfg := s.Cfg
	cfg.Device = dev
	cfg.Exec = s.Exec()
	return plan.Evaluate(cfg, w, sel)
}

// TBPoint returns the (cached) TBPoint selection on the Volta, or nil when
// the workload exceeds the baseline's scaling wall.
func (s *Study) TBPoint(w *workload.Workload) (*tbpoint.Selection, error) {
	return s.tbSels.Do(w.FullName(), func() (*tbpoint.Selection, error) {
		sp := s.Cfg.Obs.StartSpan("tbpoint-select", w.FullName())
		defer sp.End()
		r, err := tbpoint.Select(s.Cfg.Device, w)
		if err != nil && !errors.Is(err, tbpoint.ErrTooLarge) {
			return nil, err
		}
		return r, nil
	})
}

// ComparableSet returns the workloads eligible for the Figure 7/8
// comparisons: full simulation feasible on the Volta, no run-to-run kernel
// mismatch quirks, and within TBPoint's scaling wall.
func (s *Study) ComparableSet() []*workload.Workload {
	budget := s.Cfg.FullSimBudget
	if budget <= 0 {
		budget = sampling.DefaultFullSimBudget
	}
	var out []*workload.Workload
	for _, w := range s.Workloads() {
		if w.Quirk != "" || w.Suite == "MLPerf" {
			continue
		}
		if w.ApproxWarpInstructions(budget) > budget {
			continue
		}
		out = append(out, w)
	}
	return out
}
