package tbpoint

import (
	"errors"
	"testing"

	"pka/internal/gpu"
	"pka/internal/workload"
)

func TestSelectGaussian(t *testing.T) {
	w := workload.Find("Rodinia/gauss_208")
	sel, err := Select(gpu.VoltaV100(), w)
	if err != nil {
		t.Fatal(err)
	}
	if sel.K < 1 || sel.K > w.N {
		t.Errorf("K = %d", sel.K)
	}
	if sel.SelectionErrorPct > 10 {
		t.Errorf("selection error %.2f%%", sel.SelectionErrorPct)
	}
	total := 0
	for _, g := range sel.Groups {
		total += g.Count
		if g.RepIndex < 0 || g.RepIndex >= w.N {
			t.Errorf("bad representative index %d", g.RepIndex)
		}
	}
	if total != w.N {
		t.Errorf("group counts sum to %d, want %d", total, w.N)
	}
}

func TestScalingWall(t *testing.T) {
	w := workload.Find("MLPerf/ssd_training")
	if _, err := Select(gpu.VoltaV100(), w); !errors.Is(err, ErrTooLarge) {
		t.Errorf("err = %v, want ErrTooLarge — TBPoint must not scale to MLPerf", err)
	}
}

func TestMoreConservativeThanPKS(t *testing.T) {
	// TBPoint's threshold sweep plus per-kernel statistics tends to keep
	// more groups than PKS's K sweep on heterogeneous apps; at minimum it
	// must produce a valid, low-error clustering.
	w := workload.Find("Polybench/gramschmidt")
	sel, err := Select(gpu.VoltaV100(), w)
	if err != nil {
		t.Fatal(err)
	}
	if sel.SelectionErrorPct > 10 {
		t.Errorf("gramschmidt selection error %.2f%%", sel.SelectionErrorPct)
	}
}

func TestSweepRecordsErrors(t *testing.T) {
	w := workload.Find("Parboil/histo")
	sel, err := Select(gpu.VoltaV100(), w)
	if err != nil {
		t.Fatal(err)
	}
	if len(sel.SweepErrors) == 0 {
		t.Fatal("no sweep trace")
	}
	if sel.Threshold < 0.01-1e-9 || sel.Threshold > 0.2+1e-9 {
		t.Errorf("threshold %.3f outside the paper's [0.01, 0.2] sweep", sel.Threshold)
	}
}

func TestSingleKernelWorkload(t *testing.T) {
	w := workload.Find("Polybench/gemm")
	sel, err := Select(gpu.VoltaV100(), w)
	if err != nil {
		t.Fatal(err)
	}
	if sel.K != 1 || sel.Groups[0].Count != 1 {
		t.Errorf("single-kernel clustering: %+v", sel)
	}
	if sel.SelectionErrorPct != 0 {
		t.Errorf("error = %v, want 0", sel.SelectionErrorPct)
	}
}
