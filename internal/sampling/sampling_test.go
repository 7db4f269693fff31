package sampling

import (
	"testing"

	"pka/internal/gpu"
	"pka/internal/workload"
)

func TestSiliconTotal(t *testing.T) {
	w := workload.Find("Rodinia/b+tree")
	app, err := SiliconTotal(gpu.VoltaV100(), w)
	if err != nil {
		t.Fatal(err)
	}
	if app.Kernels != w.N || app.Cycles <= 0 || app.TimeSeconds <= 0 {
		t.Errorf("silicon total: %+v", app)
	}
}
