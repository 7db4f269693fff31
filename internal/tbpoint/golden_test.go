package tbpoint

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"pka/internal/gpu"
	"pka/internal/workload"
)

// TestTBPointSelectionGolden pins every field of the selections Select
// returns for four workloads on two devices: the chosen threshold, K, the
// selection error and the whole sweep to the float bit, and each group's
// representative, population and cycles. The first three meet the target at
// the coarsest threshold; bfs1MW walks 19 of the 20 thresholds, so the
// sweep's threshold arithmetic is pinned too.
func TestTBPointSelectionGolden(t *testing.T) {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for _, dev := range []gpu.Device{gpu.VoltaV100(), gpu.TuringRTX2060()} {
		for _, name := range []string{"Rodinia/gauss_208", "Rodinia/bfs65536", "Parboil/spmv", "Rodinia/bfs1MW"} {
			w := workload.Find(name)
			if w == nil {
				t.Fatalf("workload %s missing", name)
			}
			sel, err := Select(dev, w)
			if err != nil {
				t.Fatalf("%s on %s: %v", name, dev.Name, err)
			}
			put(math.Float64bits(sel.Threshold))
			put(uint64(sel.K))
			put(math.Float64bits(sel.SelectionErrorPct))
			put(uint64(len(sel.SweepErrors)))
			for _, e := range sel.SweepErrors {
				put(math.Float64bits(e))
			}
			put(uint64(len(sel.Groups)))
			for _, g := range sel.Groups {
				put(uint64(g.RepIndex))
				put(uint64(g.Count))
				put(uint64(g.RepCycles))
			}
		}
	}
	const want uint64 = 0x0089e89c710a60b9
	if got := h.Sum64(); got != want {
		t.Errorf("selections hash to %#x, want %#x", got, want)
	}
}
