package sampling_test

import (
	"bytes"
	"encoding/binary"
	"io/fs"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"pka/internal/artifact"
	"pka/internal/core"
	"pka/internal/gpu"
	"pka/internal/obs"
	"pka/internal/pkp"
	"pka/internal/pks"
	"pka/internal/sampling"
	"pka/internal/trace"
	"pka/internal/workload"
)

// TestWarmStudyRemembersPackKeys: a warm study hashes each key once per
// workload. Over a store a cold study primed, a fresh workload's first warm
// evaluation derives its pack key, its digest and TaskKeys; its second derives
// none, and every key it resolves — the flight recorder's, each equal to
// TaskKey for its launch and task — comes from the workload's memo. Only the
// expected values are remembered: a pack whose digest is flipped, rewritten
// under a valid frame so that only Bind's comparison can catch it, is refused
// on a study that hits the memo, and so is one whose selection moves a
// representative. A struct copy of the workload with another N sees none of
// the entries.
func TestWarmStudyRemembersPackKeys(t *testing.T) {
	dev := gpu.VoltaV100()
	tasks := map[string]sampling.KernelTask{
		"full": {Mode: sampling.ModeFull},
		"pks":  sampling.SampledTask(0, pkp.Options{}, false),
		"pka":  sampling.SampledTask(0, pkp.Options{}, true),
	}
	for _, name := range []string{"Rodinia/lud_i", "MLPerf/3dunet_inf"} {
		src := workload.Find(name)
		if src == nil {
			t.Fatalf("workload %s missing", name)
		}
		fresh := func() *workload.Workload { return workload.New(src.Suite, src.Name, src.N, src.Kernel) }
		store, err := artifact.Open(t.TempDir(), artifact.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer store.Close()
		study := func(w *workload.Workload) (*core.Evaluation, core.Config, [3]int64) {
			t.Helper()
			cfg := core.Config{Device: dev, Exec: sampling.NewExec(nil, store), Flight: sampling.NewFlightRecorder()}
			before := sampling.Derived()
			ev, err := core.Evaluate(cfg, w)
			if err != nil {
				t.Fatal(err)
			}
			after := sampling.Derived()
			ev.Workload = nil // holds a func
			return ev, cfg, [3]int64{after[0] - before[0], after[1] - before[1], after[2] - before[2]}
		}
		cold, _, _ := study(fresh())
		w := fresh()
		_, _, first := study(w)
		warm, cfg, again := study(w)
		if first[0] == 0 || first[1] != 1 || first[2] != 1 {
			t.Errorf("%s: a fresh workload's first warm study derived %v TaskKeys, pack keys, digests; want some, 1, 1", name, first)
		}
		if again != [3]int64{} {
			t.Errorf("%s: its second warm study derived %v TaskKeys, pack keys, digests; want none", name, again)
		}
		if !reflect.DeepEqual(warm, cold) {
			t.Errorf("%s: warm evaluation differs:\n got %+v\nwant %+v", name, warm, cold)
		}
		entries := cfg.Flight.Entries()
		want := 2 * len(warm.Selection.Groups)
		if warm.Full != nil {
			want += w.N
		}
		if len(entries) != want {
			t.Errorf("%s: %d tasks recorded, want %d", name, len(entries), want)
		}
		for _, e := range entries {
			launch := e.Index
			if e.Phase != "full" {
				launch = warm.Selection.Groups[e.Index].RepIndex
			}
			k := w.Kernel(launch)
			if key := sampling.TaskKey(dev, &k, tasks[e.Phase]); e.Key != key {
				t.Errorf("%s: %s task %d keyed %s, want TaskKey %s", name, e.Phase, e.Index, e.Key, key)
			}
		}

		// The pack holds the selection entry's bytes and every outcome, so it
		// is the store's largest entry.
		key, good := largestEntry(t, store)
		bad := bytes.Clone(good)
		bad[8+binary.LittleEndian.Uint64(bad)] ^= 1 // the digest's first byte
		if err := store.View().Put(key, bad); err != nil {
			t.Fatal(err)
		}
		got, cfg, derived := study(w)
		if derived != [3]int64{} {
			t.Errorf("%s, flipped digest: the study derived %v TaskKeys, pack keys, digests; want none", name, derived)
		}
		if !reflect.DeepEqual(got, cold) {
			t.Errorf("%s, flipped digest: evaluation differs", name)
		}
		if packs := cfg.Exec.CacheStats()["batch"]; packs != (obs.CacheCounts{Misses: 1, Corrupt: 1}) {
			t.Errorf("%s, flipped digest: batch family %+v, want one corrupt miss", name, packs)
		}
		if now, _ := store.View().Get(key); !bytes.Equal(now, good) {
			t.Errorf("%s, flipped digest: the pack was not written back", name)
		}

		// A pack whose selection names another launch for one group keeps its
		// digest and outcomes, and fits the workload: the digest of the keys
		// its representatives now have — a memo entry of their own — refuses it.
		selLen := binary.LittleEndian.Uint64(good)
		sel, err := pks.DecodeSelection(good[8:8+selLen], w.FullName(), dev.Name, w.N)
		if err != nil {
			t.Fatal(err)
		}
		rep := w.Kernel(sel.Groups[0].RepIndex)
		for j := range w.N {
			k := w.Kernel(j)
			if sampling.TaskKey(dev, &k, tasks["pks"]) != sampling.TaskKey(dev, &rep, tasks["pks"]) {
				sel.Groups[0].RepIndex = j
				break
			}
		}
		moved := pks.EncodeSelection(sel)
		moved = append(append(binary.LittleEndian.AppendUint64(nil, uint64(len(moved))), moved...), good[8+selLen:]...)
		if err := store.View().Put(key, moved); err != nil {
			t.Fatal(err)
		}
		if _, cfg, _ := study(w); cfg.Exec.CacheStats()["batch"] != (obs.CacheCounts{Misses: 1, Corrupt: 1}) {
			t.Errorf("%s, another representative: batch family %+v, want one corrupt miss", name, cfg.Exec.CacheStats()["batch"])
		}

		// A copy with another N keys its memo apart: the pack key, the digest
		// and the TaskKeys a warm w holds are derived anew for it.
		other := *w
		other.N--
		for _, c := range []struct {
			w    *workload.Workload
			want [3]int64
		}{{w, [3]int64{1, 1, 1}}, {w, [3]int64{}}, {&other, [3]int64{1, 1, 1}}} {
			before := sampling.Derived()
			pack := sampling.NewExec(nil, store).OpenPack(dev, c.w, c.w.FullName(), nil, []sampling.KernelTask{tasks["pks"]}, nil)
			pack.Bind(dev, &sampling.RiderPass{Task: tasks["pks"], Kernels: []trace.KernelDesc{c.w.Kernel(0)}})
			after := sampling.Derived()
			if got := [3]int64{after[0] - before[0], after[1] - before[1], after[2] - before[2]}; got != c.want {
				t.Errorf("%s (%d launches): a one-task pack derived %v TaskKeys, pack keys, digests; want %v", name, c.w.N, got, c.want)
			}
		}
	}
}

// largestEntry returns the key and payload of the largest entry in store.
func largestEntry(t *testing.T, store *artifact.Store) (string, []byte) {
	t.Helper()
	var path string
	var size int64
	err := filepath.WalkDir(store.Dir(), func(p string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(p, ".bin") {
			return err
		}
		fi, err := d.Info()
		if err == nil && fi.Size() > size {
			path, size = p, fi.Size()
		}
		return err
	})
	if err != nil || path == "" {
		t.Fatalf("no entry in the store: %v", err)
	}
	key := strings.TrimSuffix(filepath.Base(path), ".bin")
	raw, ok := store.View().Get(key)
	if !ok {
		t.Fatalf("entry %s does not read back", key)
	}
	return key, raw
}
