package experiments

import (
	"reflect"
	"sort"
	"strings"
	"testing"

	"pka/internal/artifact"
	"pka/internal/core"
	"pka/internal/gpu"
	"pka/internal/obs"
	"pka/internal/parallel"
	"pka/internal/report"
	"pka/internal/sampling"
)

// TestCacheDeterminism is the artifact-cache golden test: a serial
// uncached study, a cold cached parallel study, and a warm cached parallel
// study (same directory, fresh Study so every in-memory cache starts
// empty) must render byte-identical figures — Figures 7 and 8's baselines
// included — and the warm run must actually be served from disk.
func TestCacheDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the artifact pipeline three times")
	}
	render := func(s *Study) string {
		var sb strings.Builder
		c6, t6, err := Figure6(s)
		if err != nil {
			t.Fatal(err)
		}
		sb.WriteString(c6.String())
		sb.WriteString(t6.String())
		tab4, err := Table4(s)
		if err != nil {
			t.Fatal(err)
		}
		sb.WriteString(tab4.String())
		for _, fig := range []func(*Study) (*report.Chart, *report.Table, error){Figure7, Figure8} {
			c, tab, err := fig(s)
			if err != nil {
				t.Fatal(err)
			}
			sb.WriteString(c.String())
			sb.WriteString(tab.String())
		}
		return sb.String()
	}
	cached := func(dir string) (*Study, *artifact.Store) {
		st, err := artifact.Open(dir, artifact.Options{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Close() })
		s := tinyStudy(4)
		s.Cfg.Exec = sampling.NewExec(parallel.NewScheduler(s.Cfg.Parallelism), st)
		return s, st
	}

	serial := render(tinyStudy(1))

	dir := t.TempDir()
	coldStudy, coldStore := cached(dir)
	cold := render(coldStudy)
	if st := coldStore.Stats(); st.Writes == 0 {
		t.Fatal("cold run persisted nothing")
	}

	warmStudy, warmStore := cached(dir)
	warm := render(warmStudy)
	cs := warmStudy.Exec().CacheStats()
	if cs["artifact"].Hits+cs["batch"].Hits == 0 {
		t.Fatal("warm run never hit the artifact store")
	}
	if cs["batch"].Misses != 0 {
		t.Errorf("warm run missed %d of the packs the cold one wrote", cs["batch"].Misses)
	}
	if st := warmStore.Stats(); st.Writes != 0 {
		t.Errorf("warm run recomputed %d outcomes the store should have served", st.Writes)
	}

	if cold != serial {
		t.Errorf("cold cached output diverges from serial:\n--- serial ---\n%s\n--- cold ---\n%s", serial, cold)
	}
	if warm != serial {
		t.Errorf("warm cached output diverges from serial:\n--- serial ---\n%s\n--- warm ---\n%s", serial, warm)
	}

	// The store's counters surface through the Exec's families, and the
	// study reports its own caches only, the ones above the ladder.
	if st := warmStore.Stats(); cs["artifact"].Hits != st.Hits || cs["artifact"].Misses != st.Misses {
		t.Errorf("Exec.CacheStats reports artifact %+v, the store %+v", cs["artifact"], st)
	}
	var own []string
	for family := range warmStudy.CacheStats() {
		own = append(own, family)
	}
	sort.Strings(own)
	if want := []string{"crossgen", "evaluations", "selections", "tbpoint_selections"}; !reflect.DeepEqual(own, want) {
		t.Errorf("Study.CacheStats families %v, want %v", own, want)
	}
}

// TestStudySimulatesLikeEvaluate pins what a study's Table 4 costs the
// simulator: over a store-backed Exec it makes exactly as many passes
// (counted on the sampled tracks, SimMetrics().Kernels) as core.Evaluate makes
// on the same workloads over a fresh Exec each. The full, PKS and PKA columns
// come out of one evaluation, so each principal kernel is simulated once
// whether full simulation is feasible or (at a budget of one warp
// instruction) not; a study that ran its PKS and PKA passes apart would count
// each representative twice.
func TestStudySimulatesLikeEvaluate(t *testing.T) {
	ws := tinyStudy(1).Workloads()[:2] // gauss_208 + bfs65536
	for _, budget := range []int64{0, 1} {
		ref := obs.NewObserver()
		for _, w := range ws {
			cfg := core.Config{Device: gpu.VoltaV100(), FullSimBudget: budget, Obs: ref, Exec: sampling.NewExec(nil, nil)}
			if _, err := core.Evaluate(cfg, w); err != nil {
				t.Fatal(err)
			}
		}
		st, err := artifact.Open(t.TempDir(), artifact.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		s := tinyStudy(1)
		s.SetWorkloads(ws)
		s.Cfg.FullSimBudget = budget
		s.Cfg.Obs = obs.NewObserver()
		s.Cfg.Exec = sampling.NewExec(parallel.NewScheduler(1), st)
		if _, err := Table4(s); err != nil {
			t.Fatal(err)
		}
		if got, want := s.Cfg.Obs.SimMetrics().Kernels.Value(), ref.SimMetrics().Kernels.Value(); got != want {
			t.Errorf("budget %d: Table 4 made %d simulator passes, core.Evaluate %d", budget, got, want)
		}
	}
}
