package core

import (
	"fmt"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"pka/internal/artifact"
	"pka/internal/gpu"
	"pka/internal/obs"
	"pka/internal/parallel"
	"pka/internal/pks"
	"pka/internal/sampling"
	"pka/internal/workload"
)

// storeFiles reads every entry file under a store directory, by path: the
// {key → framed payload bytes} set the store holds.
func storeFiles(t *testing.T, dir string) map[string]string {
	t.Helper()
	files := map[string]string{}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".bin") {
			return err
		}
		raw, err := os.ReadFile(path)
		files[strings.TrimPrefix(path, dir)] = string(raw)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

func openStore(t *testing.T) (*artifact.Store, string) {
	t.Helper()
	dir := t.TempDir()
	store, err := artifact.Open(dir, artifact.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	return store, dir
}

// soloPhases leaves in store what the cold pass left before tasks carried
// riders: the selection, and every full, PKS and PKA task resolved by a run
// of its own (one-pass plans carry no riders) — each a one-pass evaluation,
// with a pack of its own, whose key it returns. only, when set, restricts it
// to one phase, for priming a partly warm store.
func soloPhases(t *testing.T, cfg Config, w *workload.Workload, store *artifact.Store, only string) (packs []string) {
	t.Helper()
	cfg.Exec = sampling.NewExec(nil, store)
	sel, err := Select(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		phase string
		mode  sampling.TaskMode
		sel   *pks.Selection
	}{{"full", sampling.ModeFull, nil}, {"pks", sampling.ModePKS, sel}, {"pka", sampling.ModePKA, sel}} {
		if only != "" && only != c.phase {
			continue
		}
		_, pack, err := Plan{Passes: []sampling.TaskMode{c.mode}}.evaluate(cfg, w, c.sel)
		if err != nil && (c.phase != "full" || only == "full") {
			t.Fatal(err)
		}
		if pack != nil {
			packs = append(packs, pack.Key())
		}
	}
	return packs
}

// withoutPacks is files without the entries of the packs keyed keys.
func withoutPacks(files map[string]string, keys ...string) map[string]string {
	out := maps.Clone(files)
	for _, key := range keys {
		delete(out, string(filepath.Separator)+filepath.Join(key[:2], key+".bin"))
	}
	return out
}

// pkpTrail is the set of PKP decision records an evaluation logged — their
// position in the stream aside, which moves with the phase that ran the
// projector — and its pka_pkp_* counters.
func pkpTrail(o *obs.Observer) ([]obs.AuditRecord, [4]int64) {
	recs := o.Audit.Filter("pkp", "")
	key := func(r obs.AuditRecord) string {
		return fmt.Sprintf("%s|%s|%d|%v", r.Subject, r.Event, r.Cycle, r.Fields)
	}
	for i := range recs {
		recs[i].Seq = 0
	}
	sort.Slice(recs, func(i, j int) bool { return key(recs[i]) < key(recs[j]) })
	m := o.PKPMetrics()
	return recs, [4]int64{m.Stops.Value(), m.WaveHolds.Value(), m.StopCycle.Count(), int64(m.StopCycle.Sum())}
}

// TestEvaluateRidersMatchSolo is the fence around simulating each kernel
// once: a cold Evaluate whose full baseline carries the sampled tasks as
// riders returns what resolving every task alone returns, leaves the store
// holding exactly the same selection and per-key entries, keys and bytes,
// beside its own pack, accounts every task once, and logs the same PKP
// decisions — at scheduler width 1, 2 and 8, from stores that already hold
// one of the three phases, and from one that holds them all, which it reads
// as one pack.
func TestEvaluateRidersMatchSolo(t *testing.T) {
	for _, c := range []struct {
		name, workload string
		tweak          func(*Config)
	}{
		{"irregular", "Rodinia/bfs65536", func(*Config) {}},
		{"duplicate-launches", "Rodinia/particlefilter", func(*Config) {}},
		{"full-infeasible", "Rodinia/bfs65536", func(c *Config) { c.FullSimBudget = 1 }},
		{"capped", "Rodinia/bfs65536", func(c *Config) { c.KernelCapCycles = 4000 }},
	} {
		t.Run(c.name, func(t *testing.T) {
			w := mustFind(t, c.workload)
			base := Config{Device: gpu.VoltaV100(), Parallelism: 1}
			c.tweak(&base)

			// The reference: no Exec, so every task is a run of its own.
			refObs := obs.NewObserver()
			refCfg := base
			refCfg.Obs = refObs
			ref, err := Evaluate(refCfg, w)
			if err != nil {
				t.Fatal(err)
			}
			ref.Workload = nil // holds a func
			refRecs, refCounters := pkpTrail(refObs)
			if len(refRecs) == 0 {
				t.Fatal("the reference logged no PKP decisions")
			}
			soloStore, soloDir := openStore(t)
			soloPacks := soloPhases(t, base, w, soloStore, "")
			want := withoutPacks(storeFiles(t, soloDir), soloPacks...)
			// The tasks of one evaluation: pks, pka and, where it is feasible,
			// the full baseline.
			tasks := 2 * ref.Selection.K
			if ref.Full != nil {
				tasks += w.N
			}

			check := func(what string, width int, store *artifact.Store, dir string, state string, primed []string) {
				t.Helper()
				cfg := base
				cfg.Parallelism = width
				cfg.Exec = sampling.NewExec(parallel.NewScheduler(width), store)
				cfg.Obs = obs.NewObserver()
				cfg.Flight = sampling.NewFlightRecorder()
				before := store.Stats()
				ev, pack, err := evaluate(cfg, w, nil)
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				ev.Workload = nil
				if !reflect.DeepEqual(ev, ref) {
					t.Errorf("%s: evaluation differs:\n got %+v\nwant %+v", what, ev, ref)
				}
				files := storeFiles(t, dir)
				if got := withoutPacks(files, append(primed, pack.Key())...); !reflect.DeepEqual(got, want) {
					t.Errorf("%s: store holds %d entries, resolving every task alone leaves %d (or some bytes differ)", what, len(got), len(want))
				}
				if _, err := os.Stat(entryPath(store, pack.Key())); err != nil {
					t.Errorf("%s: the evaluation left no pack: %v", what, err)
				}
				if pack.Banked() != 0 {
					t.Errorf("%s: %d outcomes left banked", what, pack.Banked())
				}
				tiers, sum := cfg.Flight.TierCounts(), 0
				for _, n := range tiers {
					sum += n
				}
				if sum != tasks || cfg.Flight.Len() != tasks {
					t.Errorf("%s: tiers %v sum to %d over %d records, want %d tasks", what, tiers, sum, cfg.Flight.Len(), tasks)
				}
				if writes := int(store.Stats().Writes - before.Writes); writes != tiers["sim"] {
					t.Errorf("%s: %d outcome writes for %d sim-tier tasks", what, writes, tiers["sim"])
				}
				if state == "warm" {
					// An all-hit study reads its pack and nothing else (the
					// selection and the pack are counted on their own handles),
					// and banks nothing.
					st, stats := store.Stats(), cfg.Exec.CacheStats()
					if gets := int(st.Hits - before.Hits); gets != 0 || st.Misses != before.Misses || tiers["disk"]+tiers["mem"] != tasks {
						t.Errorf("%s: %d per-key hits and %d misses, want 0 and 0; tiers %v", what, gets, st.Misses-before.Misses, tiers)
					}
					if stats["batch"] != (obs.CacheCounts{Hits: 1}) || stats["selection"] != (obs.CacheCounts{}) {
						t.Errorf("%s: batch family %+v, selection family %+v; want one pack hit and nothing else", what, stats["batch"], stats["selection"])
					}
				}
				if state != "cold" {
					return
				}
				if tiers["sim"]+tiers["mem"] != tasks {
					t.Errorf("%s: cold tiers %v", what, tiers)
				}
				// One simulator pass per representative reported to the sampled
				// tracks, not two: the PKA answer rode on the PKS task's pass
				// (itself a rider of the full baseline's, when there is one).
				if passes := cfg.Obs.SimMetrics().Kernels.Value(); passes != int64(ref.Selection.K) || refObs.SimMetrics().Kernels.Value() != 2*passes {
					t.Errorf("%s: %d simulator passes for %d representatives (%d when every task runs alone)",
						what, passes, ref.Selection.K, refObs.SimMetrics().Kernels.Value())
				}
				recs, counters := pkpTrail(cfg.Obs)
				if !reflect.DeepEqual(recs, refRecs) || counters != refCounters {
					t.Errorf("%s: PKP trail differs: %d records %v, want %d records %v", what, len(recs), counters, len(refRecs), refCounters)
				}
			}
			for _, width := range []int{1, 2, 8} {
				store, dir := openStore(t)
				check(fmt.Sprintf("cold, width %d", width), width, store, dir, "cold", nil)
				if width == 2 {
					check("warm", width, store, dir, "warm", nil)
				}
			}
			for _, phase := range []string{"full", "pks", "pka"} {
				if phase == "full" && ref.Full == nil {
					continue
				}
				store, dir := openStore(t)
				primed := soloPhases(t, base, w, store, phase)
				check("only "+phase+" present", 2, store, dir, "partial", primed)
			}
		})
	}
}
