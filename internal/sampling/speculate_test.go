package sampling

import (
	"testing"

	"pka/internal/gpu"
	"pka/internal/sim"
	"pka/internal/workload"
)

// TestSpeculatorWarmsWithoutChangingOutcomes pins the cache-warming
// contract: a fold preceded by speculative warming returns exactly the
// outcomes of a cold fold, speculated keys resolve as hits, and keys for
// kernels never elected resolve as demoted with their simulated work
// counted as waste.
func TestSpeculatorWarmsWithoutChangingOutcomes(t *testing.T) {
	dev := gpu.VoltaV100()
	w := workload.Find("Rodinia/gauss_mat4")
	if w == nil {
		t.Fatal("study workload missing")
	}
	task := KernelTask{Mode: ModePKS, MaxCycles: sim.DefaultMaxCycles}

	// Cold baseline.
	cold := NewExec(nil, nil)
	kept, demoted := w.Kernel(0), w.Kernel(2)
	want, err := cold.RunKernelTask(dev, &kept, task)
	if err != nil {
		t.Fatal(err)
	}

	warm := NewExec(nil, nil)
	spec := NewSpeculator(warm, dev, []KernelTask{task}, 2)
	spec.Speculate(kept)
	spec.Speculate(demoted)
	spec.Speculate(kept) // duplicate must not double-launch
	spec.Wait()
	spec.Seal()

	got, err := warm.RunKernelTask(dev, &kept, task)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("warmed outcome %+v differs from cold %+v", got, want)
	}

	final := map[string]bool{TaskKey(dev, &kept, task): true}
	st := spec.Resolve(final)
	if st.Launched != 2 {
		t.Errorf("Launched = %d, want 2 (duplicate deduped)", st.Launched)
	}
	if st.Hits != 1 || st.OverlapFraction != 1 {
		t.Errorf("Hits=%d OverlapFraction=%v, want 1 and 1", st.Hits, st.OverlapFraction)
	}
	if st.Demoted != 1 {
		t.Errorf("Demoted = %d, want 1", st.Demoted)
	}
	if st.WastedWarpInstrs <= 0 {
		t.Errorf("WastedWarpInstrs = %d, want > 0 for a demoted simulated rep", st.WastedWarpInstrs)
	}

	// Warms dispatched after Seal are dropped.
	spec.Speculate(w.Kernel(3))
	spec.Wait()
	if st2 := spec.Resolve(final); st2.Launched != st.Launched {
		t.Errorf("post-Seal speculation launched work: %d -> %d", st.Launched, st2.Launched)
	}
}
