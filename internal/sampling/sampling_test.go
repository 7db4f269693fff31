package sampling

import (
	"testing"

	"pka/internal/gpu"
	"pka/internal/workload"
)

func TestSiliconTotal(t *testing.T) {
	w := workload.Find("Rodinia/b+tree")
	sc, err := ScanLaunches(gpu.VoltaV100(), w, Want{Silicon: true})
	if err != nil {
		t.Fatal(err)
	}
	if app := sc.Silicon; app.Kernels != w.N || app.Cycles <= 0 || app.TimeSeconds <= 0 {
		t.Errorf("silicon total: %+v", app)
	}
}
