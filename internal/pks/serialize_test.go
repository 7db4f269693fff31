package pks

import (
	"bytes"
	"encoding/json"
	"testing"

	"pka/internal/gpu"
	"pka/internal/trace"
	"pka/internal/workload"
)

// TestSelectionJSONRoundTrip: the document WriteJSON writes decodes with
// encoding/json into a selection a simulator integration can replay — K
// groups whose populations cover the workload and whose weights sum to 1,
// each naming a launch by index with that launch's dimensions.
func TestSelectionJSONRoundTrip(t *testing.T) {
	w := workload.Find("Parboil/histo")
	sel, err := Select(gpu.VoltaV100(), w, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var doc bytes.Buffer
	if err := sel.WriteJSON(&doc); err != nil {
		t.Fatal(err)
	}
	var f SelectionFile
	if err := json.Unmarshal(doc.Bytes(), &f); err != nil {
		t.Fatal(err)
	}
	if f.Version != currentVersion || f.Workload != sel.Workload || f.TotalKernels != w.N {
		t.Errorf("document lost identity: %+v", f)
	}
	if f.K != sel.K || f.K != len(f.Groups) {
		t.Fatalf("K = %d with %d groups, want %d", f.K, len(f.Groups), sel.K)
	}
	total, weight := 0, 0.0
	for i, g := range f.Groups {
		if g.RepKernelID != sel.Groups[i].RepIndex || g.Count != sel.Groups[i].Count() {
			t.Errorf("group %d mismatch", i)
		}
		total += g.Count
		weight += g.Weight
	}
	if total != f.TotalKernels {
		t.Errorf("populations sum to %d, want %d", total, f.TotalKernels)
	}
	if weight < 0.999 || weight > 1.001 {
		t.Errorf("weights sum to %v", weight)
	}
	g, k := f.Groups[0], w.Kernel(f.Groups[0].RepKernelID)
	grid := trace.Dim3{X: g.RepGrid[0], Y: g.RepGrid[1], Z: g.RepGrid[2]}
	block := trace.Dim3{X: g.RepBlock[0], Y: g.RepBlock[1], Z: g.RepBlock[2]}
	if grid != k.Grid || block != k.Block {
		t.Error("representative dims do not reconstruct the launch")
	}
}
