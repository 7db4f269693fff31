package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/fnv"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"pka/internal/artifact"
	"pka/internal/gpu"
	"pka/internal/obs"
	"pka/internal/parallel"
	"pka/internal/pks"
	"pka/internal/sampling"
	"pka/internal/trace"
	"pka/internal/workload"
)

func mustFind(t *testing.T, name string) *workload.Workload {
	t.Helper()
	w := workload.Find(name)
	if w == nil {
		t.Fatalf("workload %s missing", name)
	}
	return w
}

// selectionKey is the key Select looks opts' selection of w up under.
func selectionKey(dev gpu.Device, w *workload.Workload, opts pks.Options) string {
	return sampling.SelectionKey(dev, w, opts.AppendKey(nil))
}

// TestSelectionGolden pins what a primed store holds: the content key and
// the payload bytes of five selections, two of them two-level. A change to selection arithmetic
// (profiler, linalg, cluster, classify, pks) moves a payload hash; when one
// is re-recorded the schema salt (sampling's selectionSchema, in every key
// below) must be bumped with it, or old stores keep serving the old selection
// under the unchanged key.
func TestSelectionGolden(t *testing.T) {
	for _, c := range []struct {
		name    string
		opts    pks.Options
		key     string
		payload uint64
	}{
		{"Rodinia/gauss_208", pks.Options{},
			"77bd4f4487d9e264bbb65c39b1db023838f87f4c5acd37d74cab733ef9f4dc3a", 0x763a4751dce72f57},
		{"Polybench/fdtd2d", pks.Options{TargetErrorPct: 0.5},
			"9d3002b5fce9e8f055b799d2f24815ef9a725b5bff50f8da410bdaddceccf797", 0x22799b3d18c0ba79},
		{"Rodinia/lud_i", pks.Options{MaxDetailed: 40},
			"d032ddf8adad444b335ab30b7e50634327719bd2eb65c399f41bc09b358456ed", 0x8098f1bbe9a18077},
		// Two-level (K = 13 and K = 2): the payload carries ClassifierAccuracy
		// and every group's MappedCount, so these two pin the tail ensemble
		// and its holdout probe.
		{"MLPerf/3dunet_inf", pks.Options{MaxDetailed: 1000},
			"c78b3e7b047bc93600d1705335c274fc40aa9ad6dd516d5b250dae00a193a3a0", 0xba8acc24066af408},
		{"Polybench/fdtd2d", pks.Options{MaxDetailed: 1000},
			"2eb780d66e3db8fb1f8e0dd27297c07cbf1c766ba565c84243d671e684e7db66", 0x88bb4b5e29961e46},
	} {
		w := mustFind(t, c.name)
		dev := gpu.VoltaV100()
		if got := selectionKey(dev, w, c.opts); got != c.key {
			t.Errorf("%s: key %s, want %s", c.name, got, c.key)
		}
		sel, err := pks.Select(dev, w, c.opts)
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		h.Write(pks.EncodeSelection(sel))
		if got := h.Sum64(); got != c.payload {
			t.Errorf("%s: payload hash %#016x, want %#016x (a selection byte moved: bump selectionSchema)", c.name, got, c.payload)
		}
	}
}

// evalOver is one Evaluate at width 1 on a fresh Exec over store, observed.
func evalOver(t *testing.T, w *workload.Workload, store *artifact.Store) (*Evaluation, *sampling.Exec, *obs.Observer) {
	t.Helper()
	o := obs.NewObserver()
	ex := sampling.NewExec(nil, store)
	ev, err := Evaluate(Config{Device: gpu.VoltaV100(), Parallelism: 1, Exec: ex, Obs: o}, w)
	if err != nil {
		t.Fatal(err)
	}
	return ev, ex, o
}

// pksRecords is the PKS audit trail without stream positions, which count
// PKP records too.
func pksRecords(o *obs.Observer) []obs.AuditRecord {
	recs := o.Audit.Filter("pks", "")
	for i := range recs {
		recs[i].Seq = 0
	}
	return recs
}

// TestSelectWarmMatchesCold is the selection twin of
// TestCorruptStoreEntryRecomputes: cold and warm evaluations over one store
// agree to the byte, in results and in the PKS audit trail — the warm one
// takes its selection from the evaluation's pack — and where the pack is gone
// a stored selection that does not fit the request costs a recompute and an
// overwrite.
func TestSelectWarmMatchesCold(t *testing.T) {
	w := mustFind(t, "Rodinia/gauss_208")
	store, err := artifact.Open(t.TempDir(), artifact.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()

	cold, coldEx, coldObs := evalOver(t, w, store)
	if got := coldEx.CacheStats()["selection"]; got != (obs.CacheCounts{Misses: 1}) {
		t.Errorf("cold selection family %+v, want one miss", got)
	}
	// The selection and the evaluation's pack are two more entries in the
	// same directory, written and counted through the exec's own handles:
	// store's counters stay kernel outcomes only (bench's artifact.puts ==
	// exec.sim_runs reads them).
	if st, sel := store.Stats(), coldEx.Selections().Stats(); sel.Writes != 1 || st.Writes == 0 || int64(st.Writes)+2 != st.Entries {
		t.Errorf("cold run: %d outcome writes, %d selection writes, %d entries", st.Writes, sel.Writes, st.Entries)
	}
	if got := coldEx.CacheStats()["batch"]; got != (obs.CacheCounts{Misses: 1}) {
		t.Errorf("cold batch family %+v, want one miss", got)
	}
	before := store.Stats()
	warm, warmEx, warmObs := evalOver(t, w, store)
	if got := warmEx.CacheStats()["selection"]; got != (obs.CacheCounts{}) {
		t.Errorf("warm selection family %+v, want no read: the pack holds the selection", got)
	}
	// The selection and the 414 launches' outcomes come out of one pack.
	if st, packs := store.Stats(), warmEx.CacheStats()["batch"]; packs != (obs.CacheCounts{Hits: 1}) || st.Hits != before.Hits || st.Misses != before.Misses || st.Entries != before.Entries {
		t.Errorf("warm run: batch family %+v, %d per-key hits, %d misses, %d new entries; want one pack hit and nothing else",
			packs, st.Hits-before.Hits, st.Misses-before.Misses, st.Entries-before.Entries)
	}
	if !reflect.DeepEqual(warm.Selection, cold.Selection) {
		t.Errorf("warm selection differs:\n got %+v\nwant %+v", warm.Selection, cold.Selection)
	}
	warm.Workload, cold.Workload = nil, nil // holds a func
	if !reflect.DeepEqual(warm, cold) {
		t.Errorf("warm evaluation differs:\n got %+v\nwant %+v", warm, cold)
	}
	coldRecs, warmRecs := pksRecords(coldObs), pksRecords(warmObs)
	if len(coldRecs) < 2 || !reflect.DeepEqual(warmRecs, coldRecs) {
		t.Errorf("PKS audit differs:\n warm %+v\n cold %+v", warmRecs, coldRecs)
	}
	cm, wm := coldObs.PKSMetrics(), warmObs.PKSMetrics()
	if wm.Selections.Value() != 1 || cm.Selections.Value() != 1 || wm.SweepSteps.Value() != 0 || cm.SweepSteps.Value() == 0 {
		t.Errorf("selections cold/warm %d/%d, sweep steps %d/%d: want 1/1 and n/0",
			cm.Selections.Value(), wm.Selections.Value(), cm.SweepSteps.Value(), wm.SweepSteps.Value())
	}

	// Payloads the store's own checksum cannot catch: re-Put under the right
	// key, validly framed, but not a selection for this request. The pack is
	// removed first, so the evaluation asks for the selection.
	_, pack, err := evaluate(Config{Device: gpu.VoltaV100(), Exec: sampling.NewExec(nil, store)}, w, nil)
	if err != nil {
		t.Fatal(err)
	}
	key := selectionKey(gpu.VoltaV100(), w, pks.Options{})
	good, ok := store.Get(key)
	if !ok {
		t.Fatal("no selection entry under the selection key")
	}
	other, err := pks.Select(gpu.VoltaV100(), mustFind(t, "Rodinia/gauss_mat4"), pks.Options{})
	if err != nil {
		t.Fatal(err)
	}
	short := *cold.Selection
	short.TotalKernels--
	for what, payload := range map[string][]byte{
		"truncated":           good[:len(good)-3],
		"wrong-total-kernels": pks.EncodeSelection(&short),
		"wrong-workload":      pks.EncodeSelection(other),
		"empty":               {},
	} {
		if err := store.Put(key, payload); err != nil {
			t.Fatal(err)
		}
		if err := os.Remove(entryPath(store, pack.Key())); err != nil {
			t.Fatal(err)
		}
		again, ex, _ := evalOver(t, w, store)
		if got := ex.CacheStats()["selection"]; got != (obs.CacheCounts{Misses: 1, Corrupt: 1}) {
			t.Errorf("%s: selection family %+v, want one corrupt miss", what, got)
		}
		again.Workload = nil
		if !reflect.DeepEqual(again, cold) {
			t.Errorf("%s: recomputed evaluation differs", what)
		}
		if now, _ := store.Get(key); !reflect.DeepEqual(now, good) {
			t.Errorf("%s: the bad entry was not overwritten with the good payload", what)
		}
	}
}

// entryPath is where store keeps the entry keyed key.
func entryPath(store *artifact.Store, key string) string {
	return filepath.Join(store.Dir(), key[:2], key+".bin")
}

// TestWarmStudyReadsOnce: a warm study is one store read. Over a store a cold
// Evaluate primed, a fresh Exec's Evaluate makes exactly one Get across the
// store's views — its pack, which holds the selection and every outcome — and
// no Put, returns the cold Evaluation and serves every task from disk: with a
// full baseline (gauss_208, lud_i), with passes of one task (hots_1024) and
// without a full pass (3dunet_inf). A pack that is not this evaluation's — a
// flipped byte, one outcome short, another workload's selection — is one
// corrupt batch miss: the ladder serves the same bytes, and the pack is
// written back.
func TestWarmStudyReadsOnce(t *testing.T) {
	for _, name := range []string{"Rodinia/gauss_208", "Rodinia/lud_i", "Rodinia/hots_1024", "MLPerf/3dunet_inf"} {
		w := mustFind(t, name)
		store, dir := openStore(t)
		study := func() (*Evaluation, Config) {
			t.Helper()
			cfg := Config{Device: gpu.VoltaV100(), Parallelism: 1, Exec: sampling.NewExec(nil, store), Flight: sampling.NewFlightRecorder()}
			ev, err := Evaluate(cfg, w)
			if err != nil {
				t.Fatal(err)
			}
			ev.Workload = nil // holds a func
			return ev, cfg
		}
		cold, _ := study()
		_, pack, err := evaluate(Config{Device: gpu.VoltaV100(), Exec: sampling.NewExec(nil, store)}, w, nil)
		if err != nil {
			t.Fatal(err)
		}
		good, err := os.ReadFile(entryPath(store, pack.Key()))
		if err != nil {
			t.Fatalf("%s: the cold study left no pack: %v", name, err)
		}

		files, before := storeInodes(t, dir), store.Stats()
		warm, cfg := study()
		if !reflect.DeepEqual(warm, cold) {
			t.Errorf("%s: warm evaluation differs:\n got %+v\nwant %+v", name, warm, cold)
		}
		// The store's own counters run from Open, its views' from the Exec's.
		st, stats := store.Stats(), cfg.Exec.CacheStats()
		gets := st.Hits + st.Misses - before.Hits - before.Misses
		for _, family := range []string{"selection", "batch"} {
			gets += stats[family].Hits + stats[family].Misses
		}
		if packs := stats["batch"]; gets != 1 || packs != (obs.CacheCounts{Hits: 1}) {
			t.Errorf("%s: warm study made %d store reads, batch family %+v; want its pack alone", name, gets, packs)
		}
		if now := storeInodes(t, dir); !sameFiles(now, files) {
			t.Errorf("%s: the warm study wrote to the store", name)
		}
		for _, e := range cfg.Flight.Entries() {
			if e.Tier != sampling.TierDisk {
				t.Errorf("%s: %s task %d served by %s, want disk", name, e.Phase, e.Index, e.Tier)
			}
		}
		if name != "Rodinia/gauss_208" {
			continue
		}

		raw, ok := store.View().Get(pack.Key())
		if !ok {
			t.Fatal("the pack does not read back")
		}
		selLen := int(binary.LittleEndian.Uint64(raw))
		other, err := pks.Select(gpu.VoltaV100(), mustFind(t, "Rodinia/gauss_mat4"), pks.Options{})
		if err != nil {
			t.Fatal(err)
		}
		otherSel := pks.EncodeSelection(other)
		for what, corrupt := range map[string]func() error{
			"flipped byte": func() error {
				bad := bytes.Clone(good)
				bad[len(bad)/2] ^= 0x40
				return os.WriteFile(entryPath(store, pack.Key()), bad, 0o644)
			},
			"one outcome short": func() error {
				return store.View().Put(pack.Key(), raw[:len(raw)-33])
			},
			"another workload's selection": func() error {
				bad := binary.LittleEndian.AppendUint64(nil, uint64(len(otherSel)))
				return store.View().Put(pack.Key(), append(append(bad, otherSel...), raw[8+selLen:]...))
			},
		} {
			if err := corrupt(); err != nil {
				t.Fatal(err)
			}
			got, cfg := study()
			if !reflect.DeepEqual(got, cold) {
				t.Errorf("%s, %s: evaluation differs", name, what)
			}
			if packs := cfg.Exec.CacheStats()["batch"]; packs != (obs.CacheCounts{Misses: 1, Corrupt: 1}) {
				t.Errorf("%s, %s: batch family %+v, want one corrupt miss", name, what, packs)
			}
			if tiers := cfg.Flight.TierCounts(); tiers["sim"] != 0 {
				t.Errorf("%s, %s: tiers %v, want the ladder's per-key entries", name, what, tiers)
			}
			if now, _ := os.ReadFile(entryPath(store, pack.Key())); !bytes.Equal(now, good) {
				t.Errorf("%s, %s: the bad pack was not overwritten with the good one", name, what)
			}
		}
	}
}

// storeInodes stats every entry file under a store directory, by path.
func storeInodes(t *testing.T, dir string) map[string]os.FileInfo {
	t.Helper()
	files := map[string]os.FileInfo{}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".bin") {
			return err
		}
		fi, err := os.Stat(path)
		files[path] = fi
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// sameFiles reports whether a and b name the same files: no entry written
// (a Put renames a fresh file into place), added or removed.
func sameFiles(a, b map[string]os.FileInfo) bool {
	if len(a) != len(b) {
		return false
	}
	for path, fi := range a {
		if other, ok := b[path]; !ok || !os.SameFile(fi, other) {
			return false
		}
	}
	return true
}

// TestEvaluateRejectsMisfitSelection: a handed-in selection that does not fit
// the workload is a plain error, not a stage panic inside w.Kernel.
func TestEvaluateRejectsMisfitSelection(t *testing.T) {
	w := mustFind(t, "Rodinia/gauss_208")
	cfg := Config{Device: gpu.VoltaV100(), Parallelism: 1}
	sel, err := Select(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	outOfRange := *sel
	outOfRange.Groups = append([]pks.Group(nil), sel.Groups...)
	outOfRange.Groups[0].RepIndex = w.N
	short := *sel
	short.TotalKernels--
	for what, bad := range map[string]*pks.Selection{"rep out of range": &outOfRange, "total kernels": &short} {
		_, err := CompletePlan().Evaluate(cfg, w, bad)
		if err == nil || strings.Contains(err.Error(), "panic") {
			t.Errorf("%s: err = %v, want a plain selection error", what, err)
		}
	}
}

// TestWarmStudyWalksOnce counts generated launches. A workload's first warm
// evaluation over a primed store generates every launch exactly once where
// full simulation is feasible — the one scan feeds the key, the silicon total,
// the instruction mass and the full baseline's launches — and once more for
// each representative where it is not. Its second generates none but those
// representatives: the workload remembers its scan. A cold one adds only what
// pks.Select itself generates. The one-pass plans, with and without silicon,
// are held to the same walk.
func TestWarmStudyWalksOnce(t *testing.T) {
	for _, name := range []string{"Rodinia/lud_i", "MLPerf/3dunet_inf"} {
		src := mustFind(t, name)
		var gens int
		counted := func() *workload.Workload { // src's launches, nothing remembered
			return workload.New(src.Suite, src.Name, src.N, func(i int) trace.KernelDesc {
				gens++ // Evaluate on a nil scheduler stays on this goroutine
				return src.Kernel(i)
			})
		}
		calls := func(f func()) int {
			gens = 0
			f()
			return gens
		}
		selecting := calls(func() {
			if _, err := pks.Select(gpu.VoltaV100(), counted(), pks.Options{}); err != nil {
				t.Fatal(err)
			}
		})
		store, _ := openStore(t)
		var ev *Evaluation
		cold := calls(func() { ev, _, _ = evalOver(t, counted(), store) })
		w := counted()
		warm := calls(func() { evalOver(t, w, store) })
		again := calls(func() { evalOver(t, w, store) })
		reps := 0
		if ev.Full == nil {
			reps = len(ev.Selection.Groups)
		}
		if warm != w.N+reps || again > reps || cold > warm+selecting {
			t.Errorf("%s (%d launches, full feasible: %v): warm evaluations generated %d then %d, want %d then at most %d; cold %d, want at most %d more (pks.Select's)",
				name, w.N, ev.Full != nil, warm, again, w.N+reps, reps, cold, selecting)
		}

		// The one-pass plans the study service and pka's suite-dedup baseline
		// issue walk at most once as well, and generate the representatives
		// only where the walk kept no launches; a lone full pass without
		// silicon stops at the budget.
		for _, mode := range []sampling.TaskMode{sampling.ModePKA, sampling.ModePKS, sampling.ModeFull} {
			for _, silicon := range []bool{false, true} {
				plan := Plan{Passes: []sampling.TaskMode{mode}, Silicon: silicon}
				var err error
				got := calls(func() {
					_, err = plan.Evaluate(Config{Device: gpu.VoltaV100(), Exec: sampling.NewExec(nil, store)}, counted(), nil)
				})
				if infeasible := mode == sampling.ModeFull && ev.Full == nil; infeasible != errors.Is(err, sampling.ErrInfeasible) || !infeasible && err != nil {
					t.Fatalf("%s, plan %+v: %v", name, plan, err)
				}
				most := w.N
				if mode != sampling.ModeFull {
					most += len(ev.Selection.Groups)
				}
				if mode == sampling.ModeFull && !silicon && ev.Full == nil {
					most = w.N - 1
				}
				if got > most {
					t.Errorf("%s, plan %+v: generated %d launches, want at most %d", name, plan, got, most)
				}
			}
		}
	}
}

// TestWarmEvaluationAllocs pins what a warm study allocates: lud_i on a fresh
// Exec at scheduler width 1 over a primed store, its scan and keys
// remembered. The full pass takes its 192 task keys from the scan, the
// representatives' keys, the pack key and the digest come from the
// workload's memo, and the evaluation's pack serves every pass as a copy of
// its outcomes, with no per-task ladder or wiring (136 allocations; 210 with a
// process-wide memo of the keys alone, 342 when each study hashed them and
// built each served task's PKP wiring, 785 when each of the 212 tasks still
// went through the scheduler's inline loop and a mem-tier singleflight entry,
// ≈ 1 025 with a pack per pass and the selection read apart, ≈ 3 400 when
// each study hashed every key and scheduled every task).
func TestWarmEvaluationAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	w := mustFind(t, "Rodinia/lud_i")
	store, _ := openStore(t)
	study := func() {
		cfg := Config{Device: gpu.VoltaV100(), Exec: sampling.NewExec(parallel.NewScheduler(1), store)}
		if _, err := Evaluate(cfg, w); err != nil {
			t.Fatal(err)
		}
	}
	study() // primes the store
	if allocs := testing.AllocsPerRun(5, study); allocs > 180 {
		t.Errorf("a warm lud_i evaluation allocates %.0f times, want at most 180", allocs)
	}
}

// TestConcurrentStudiesShareOneWorkload evaluates one catalogue workload from
// two goroutines over one Exec, as the study service's runners do: each
// scans, remembers and reads the workload's memo while the other does, and
// every evaluation, cold or warm, is the same. make race runs it.
func TestConcurrentStudiesShareOneWorkload(t *testing.T) {
	w := mustFind(t, "Rodinia/gauss_s16")
	store, _ := openStore(t)
	cfg := Config{Device: gpu.VoltaV100(), Exec: sampling.NewExec(nil, store)}
	var evs [2][2]*Evaluation
	var errs [2]error
	done := make(chan int)
	for g := range evs {
		go func() {
			defer func() { done <- g }()
			for i := range evs[g] {
				if evs[g][i], errs[g] = Evaluate(cfg, w); errs[g] != nil {
					return
				}
			}
		}()
	}
	<-done
	<-done
	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
	}
	for g := range evs {
		for i := range evs[g] {
			if !reflect.DeepEqual(evs[g][i], evs[0][0]) {
				t.Errorf("evaluation %d of goroutine %d differs from the first:\n%+v\n%+v", i, g, evs[g][i], evs[0][0])
			}
		}
	}
}
