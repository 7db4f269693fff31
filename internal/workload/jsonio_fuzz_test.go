package workload

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// fuzz seed corpus: one valid document and the malformed shapes the loader
// must reject with an error — never a panic and never an unbounded
// allocation.
var jsonSeeds = []string{
	// Valid two-kernel pipeline.
	`{"suite":"mine","name":"pipeline","kernels":[
		{"name":"map","grid":[640,1,1],"block":[256,1,1],
		 "mix":{"compute":150,"global_loads":4},"coalescing_factor":4,
		 "working_set_bytes":8388608,"strided_fraction":0.95,"divergence_eff":1.0,"repeat":40},
		{"name":"reduce","grid":[512,1,1],"block":[256,1,1],
		 "mix":{"compute":12,"global_loads":24},"coalescing_factor":4,
		 "working_set_bytes":536870912,"strided_fraction":0.4,"divergence_eff":1.0,"repeat":20}]}`,
	// Malformed dims.
	`{"name":"bad","kernels":[{"name":"k","grid":[-4,1,1],"block":[256,1,1],"mix":{"compute":10}}]}`,
	`{"name":"bad","kernels":[{"name":"k","grid":[1,1,1],"block":[2048,1,1],"mix":{"compute":10}}]}`,
	`{"name":"bad","kernels":[{"name":"k","grid":[0,0,0],"block":[0,0,0],"mix":{"compute":10}}]}`,
	// Negative repeats must error, not silently clamp.
	`{"name":"bad","kernels":[{"name":"k","grid":[8,1,1],"block":[64,1,1],"mix":{"compute":10},"repeat":-3}]}`,
	// Huge counts must error before allocating.
	`{"name":"bad","kernels":[{"name":"k","grid":[8,1,1],"block":[64,1,1],"mix":{"compute":10},"repeat":2000000000}]}`,
	`{"name":"bad","kernels":[{"name":"k","grid":[2000000000,60000,60000],"block":[64,1,1],"mix":{"compute":10}}]}`,
	// Negative instruction mix.
	`{"name":"bad","kernels":[{"name":"k","grid":[8,1,1],"block":[64,1,1],"mix":{"compute":20,"global_loads":-5}}]}`,
	// Structural junk.
	``, `{`, `[]`, `{"name":"x"}`, `{"name":"x","kernels":[]}`,
	`{"name":"x","kernels":[{"grid":[1,1,1]}]}`,
	`{"name":"x","unknown_field":1,"kernels":[{"name":"k","grid":[1,1,1],"block":[32,1,1],"mix":{"compute":1}}]}`,
	// An exact seed names one launch: valid alone, refused with a repeat.
	`{"name":"seeded","kernels":[{"name":"k","grid":[8,1,1],"block":[64,1,1],"mix":{"compute":10},"seed":18446744073709551615},
		{"name":"k","grid":[8,1,1],"block":[64,1,1],"mix":{"compute":10},"seed":7,"repeat":1}]}`,
	`{"name":"bad","kernels":[{"name":"k","grid":[8,1,1],"block":[64,1,1],"mix":{"compute":10},"seed":7,"repeat":2}]}`,
}

// validSeeds are the corpus entries that must load: the two-kernel pipeline
// and the seeded document.
var validSeeds = map[int]bool{0: true, 15: true}

// FuzzLoadWorkloadJSON fuzzes the user-workload JSON loader: any byte
// input must either parse into a bounded, fully-validated workload or
// return an error — panics and huge allocations are bugs.
func FuzzLoadWorkloadJSON(f *testing.F) {
	for _, s := range jsonSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		w, err := FromJSON(bytes.NewReader(data))
		if err != nil {
			return
		}
		if w == nil {
			t.Fatal("nil workload with nil error")
		}
		if w.N < 1 || w.N > MaxJSONKernels {
			t.Fatalf("accepted workload with out-of-bounds kernel count %d", w.N)
		}
		// Every accepted kernel must satisfy the trace validator.
		if err := w.Validate(0); err != nil {
			t.Fatalf("accepted workload fails validation: %v", err)
		}
	})
}

// TestLoadJSONSeedCorpus runs the same corpus through the on-disk loader,
// pinning which seeds must load and which must error.
func TestLoadJSONSeedCorpus(t *testing.T) {
	dir := t.TempDir()
	for i, s := range jsonSeeds {
		path := filepath.Join(dir, "doc.json")
		if err := os.WriteFile(path, []byte(s), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := LoadJSON(path)
		if validSeeds[i] {
			if err != nil {
				t.Fatalf("valid seed %d rejected: %v", i, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("malformed seed %d accepted:\n%s", i, s)
		}
	}
	if _, err := LoadJSON(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("missing file did not error")
	}
	w, err := FromJSON(strings.NewReader(jsonSeeds[0]))
	if err != nil || w.N != 60 || w.FullName() != "mine/pipeline" {
		t.Errorf("pipeline seed loaded as %v (err %v), want mine/pipeline with 60 kernels (40+20 repeats)", w, err)
	}
	w, err = FromJSON(strings.NewReader(jsonSeeds[15]))
	if err != nil || w.N != 2 || w.Kernel(0).Seed != math.MaxUint64 || w.Kernel(1).Seed != 7 {
		t.Errorf("seeded document loaded as %v (err %v), want two launches of seeds 2^64-1 and 7", w, err)
	}
}

// TestLoadJSONRepeatBounds pins the exact boundary behavior of the repeat
// and total-kernel caps.
func TestLoadJSONRepeatBounds(t *testing.T) {
	doc := func(repeat int) string {
		return `{"name":"x","kernels":[{"name":"k","grid":[8,1,1],"block":[64,1,1],"mix":{"compute":10},"repeat":` +
			strconv.Itoa(repeat) + `}]}`
	}
	if _, err := FromJSON(strings.NewReader(doc(MaxJSONRepeat + 1))); err == nil {
		t.Error("repeat above MaxJSONRepeat accepted")
	}
	w, err := FromJSON(strings.NewReader(doc(1000)))
	if err != nil || w.N != 1000 {
		t.Errorf("repeat=1000: N=%v err=%v", w, err)
	}
}
