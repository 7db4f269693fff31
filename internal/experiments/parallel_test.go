package experiments

import (
	"strings"
	"sync"
	"testing"

	"pka/internal/gpu"
	"pka/internal/parallel"
	"pka/internal/workload"
)

// tinyStudy is the cheapest structurally interesting study subset: two
// Rodinia apps (regular + irregular), a Polybench stencil, and a Cutlass
// GEMM so the Table-4 sub-family aggregation path runs.
func tinyStudy(parallelism int) *Study {
	s := New()
	s.Cfg.Parallelism = parallelism
	var ws []*workload.Workload
	for _, name := range []string{
		"Rodinia/gauss_208",
		"Rodinia/bfs65536",
		"Polybench/fdtd2d",
		"Cutlass/128x128x512_sgemm",
	} {
		w := workload.Find(name)
		if w == nil {
			panic("missing workload " + name)
		}
		ws = append(ws, w)
	}
	s.SetWorkloads(ws)
	return s
}

// TestStudySingleflight is the memoization-race regression test: under 64
// concurrent callers asking for the same artifact, the compute function
// must run exactly once. The pre-singleflight Study dropped its lock
// between the cache miss and the compute, so every caller that missed
// recomputed the selection redundantly.
func TestStudySingleflight(t *testing.T) {
	s := tinyStudy(0)
	w := workload.Find("Polybench/fdtd2d")

	var wg sync.WaitGroup
	start := make(chan struct{})
	sels := make([]interface{}, 64)
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			sel, err := s.Selection(w)
			if err != nil {
				t.Error(err)
			}
			sels[i] = sel
		}(i)
	}
	close(start)
	wg.Wait()

	if _, misses := s.selections.Stats(); misses != 1 {
		t.Errorf("%d selection computes under 64 concurrent callers, want exactly 1", misses)
	}
	for i := 1; i < 64; i++ {
		if sels[i] != sels[0] {
			t.Fatalf("caller %d received a different selection pointer", i)
		}
	}

	// Same guarantee for a device-keyed artifact.
	dev := gpu.VoltaV100()
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := s.CrossGen(dev, w); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if _, misses := s.crossGen.Stats(); misses != 1 {
		t.Errorf("%d cross-device projections for one (device, workload) key, want 1", misses)
	}
}

// TestStudyConcurrentAccessors hammers a shared Study from 64 goroutines
// mixing accessor kinds, devices, and workloads — the -race harness for
// the whole memoization layer. Each artifact must still compute exactly
// once per key.
func TestStudyConcurrentAccessors(t *testing.T) {
	s := tinyStudy(0)
	ws := s.Workloads()[:2] // gauss_208 + bfs65536
	volta, turing := gpu.VoltaV100(), gpu.TuringRTX2060()

	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			w := ws[i%len(ws)]
			switch i % 4 {
			case 0:
				if _, err := s.Selection(w); err != nil {
					t.Error(err)
				}
			case 1:
				if _, err := s.CrossGen(volta, w); err != nil {
					t.Error(err)
				}
			case 2:
				if _, err := s.CrossGen(turing, w); err != nil {
					t.Error(err)
				}
			case 3:
				if _, err := s.TBPoint(w); err != nil {
					t.Error(err)
				}
			}
		}(i)
	}
	close(start)
	wg.Wait()

	if _, misses := s.selections.Stats(); misses > uint64(len(ws)) {
		t.Errorf("selection computes = %d, want <= %d (one per workload)", misses, len(ws))
	}
	if _, misses := s.crossGen.Stats(); misses > uint64(2*len(ws)) {
		t.Errorf("crossgen computes = %d, want <= %d (one per device and workload)", misses, 2*len(ws))
	}
}

// TestParallelDeterminism is the golden determinism test: generating
// Table 4 and Figures 6-8 serially (Parallelism=1) and with
// Parallelism=8 must render byte-identical output, because Map preserves
// row order and every per-workload pipeline is self-contained.
func TestParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the artifact pipeline twice")
	}
	render := func(s *Study) string {
		var sb strings.Builder
		tab4, err := Table4(s)
		if err != nil {
			t.Fatal(err)
		}
		sb.WriteString(tab4.String())
		c6, t6, err := Figure6(s)
		if err != nil {
			t.Fatal(err)
		}
		sb.WriteString(c6.String())
		sb.WriteString(t6.String())
		c7, t7, err := Figure7(s)
		if err != nil {
			t.Fatal(err)
		}
		sb.WriteString(c7.String())
		sb.WriteString(t7.String())
		c8, t8, err := Figure8(s)
		if err != nil {
			t.Fatal(err)
		}
		sb.WriteString(c8.String())
		sb.WriteString(t8.String())
		return sb.String()
	}

	serial := render(tinyStudy(1))
	par := render(tinyStudy(8))
	if serial != par {
		t.Fatalf("parallel output diverges from serial output:\n--- serial ---\n%s\n--- parallel ---\n%s", serial, par)
	}
	if !strings.Contains(serial, "gauss_208") || !strings.Contains(serial, "Cutlass sgemm") {
		t.Errorf("rendered artifacts incomplete:\n%s", serial)
	}
}

// TestStudyParallelismKnob checks the worker-width plumbing.
func TestStudyParallelismKnob(t *testing.T) {
	s := New()
	if parallel.Workers(s.Cfg.Parallelism) < 1 {
		t.Error("default Workers must be at least 1")
	}
	s.Cfg.Parallelism = 5
	if w := parallel.Workers(s.Cfg.Parallelism); w != 5 {
		t.Errorf("Workers = %d, want 5", w)
	}
}
