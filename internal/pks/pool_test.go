package pks

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"pka/internal/gpu"
	"pka/internal/workload"
)

// repeatWorkload is a workload document of four kernels, launched in turn in
// runs of repeat: 8 × repeat launches of four kinds.
func repeatWorkload(t *testing.T, repeat int) *workload.Workload {
	t.Helper()
	var entries []string
	for r := 0; r < 2; r++ {
		for k, shape := range []struct{ grid, compute, loads int }{{64, 40, 4}, {128, 12, 24}, {32, 200, 2}, {96, 8, 8}} {
			entries = append(entries, fmt.Sprintf(`{"name": "k%d", "grid": [%d,1,1], "block": [128,1,1],
				"mix": {"compute": %d, "global_loads": %d, "global_stores": 1},
				"coalescing_factor": 4, "working_set_bytes": 1048576, "strided_fraction": 0.9,
				"divergence_eff": 1, "repeat": %d}`, k, shape.grid, shape.compute, shape.loads, repeat))
		}
	}
	w, err := workload.FromJSON(strings.NewReader(`{"name": "repeats", "kernels": [` + strings.Join(entries, ",") + `]}`))
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestPoolHoldsEachKindOnce selects a 100 000-launch workload of four kinds,
// every launch profiled in detail, and weighs the heap while the pool is
// live: the selection so far may hold a few bytes per launch plus something
// per kind, and the detailed pass may allocate per kind, not per launch
// (one 128-byte record, a 96-byte vector and a launch-sized walk each, when
// the pool kept every launch's record).
func TestPoolHoldsEachKindOnce(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	const repeat = 12500
	w := repeatWorkload(t, repeat)
	var before, during runtime.MemStats
	var launches, kinds int
	score := func(o Options, p *Pool) ScoreFunc {
		runtime.GC()
		runtime.ReadMemStats(&during)
		launches, kinds = p.Len(), len(p.kinds)
		return projectionScore(o, p)
	}
	runtime.GC()
	runtime.ReadMemStats(&before)
	seg, err := SelectSegments(gpu.VoltaV100(), []*workload.Workload{w}, Options{}, score)
	if err != nil {
		t.Fatal(err)
	}
	if sel := seg.Sels[0]; sel.TwoLevel || launches != w.N || w.N != 8*repeat || kinds != 4 {
		t.Fatalf("%d of %d launches pooled (two-level %v) in %d kinds, want all %d in 4", launches, w.N, sel.TwoLevel, kinds, 8*repeat)
	}
	grew, allocs := int64(during.HeapAlloc)-int64(before.HeapAlloc), during.Mallocs-before.Mallocs
	t.Logf("%d launches of %d kinds: the live heap grew %d bytes, the detailed pass allocated %d times", launches, kinds, grew, allocs)
	if bound := int64(8*launches + 16<<10*kinds); grew > bound {
		t.Errorf("the live heap grew %d bytes (%.1f per launch) over %d launches of %d kinds, want at most %d",
			grew, float64(grew)/float64(launches), launches, kinds, bound)
	}
	if bound := uint64(25 * kinds); allocs > bound {
		t.Errorf("the detailed pass allocated %d times over %d launches of %d kinds, want at most %d", allocs, launches, kinds, bound)
	}
}
