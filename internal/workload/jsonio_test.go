package workload

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"pka/internal/trace"
)

const validDoc = `{
  "suite": "mine", "name": "pipeline",
  "kernels": [
    {"name": "map", "grid": [640,1,1], "block": [256,1,1],
     "mix": {"compute": 150, "global_loads": 4, "global_stores": 1},
     "coalescing_factor": 4, "working_set_bytes": 8388608,
     "strided_fraction": 0.95, "divergence_eff": 1.0, "repeat": 40},
    {"name": "reduce", "grid": [512,1,1],
     "mix": {"compute": 12, "global_loads": 24},
     "working_set_bytes": 536870912, "strided_fraction": 0.4, "repeat": 20}
  ]
}`

func TestFromJSONValid(t *testing.T) {
	w, err := FromJSON(strings.NewReader(validDoc))
	if err != nil {
		t.Fatal(err)
	}
	if w.FullName() != "mine/pipeline" || w.N != 60 {
		t.Fatalf("workload = %s with %d kernels", w.FullName(), w.N)
	}
	k0 := w.Kernel(0)
	if k0.Name != "map" || k0.Grid.Count() != 640 {
		t.Errorf("kernel 0 = %+v", k0)
	}
	// Defaults applied to the under-specified second entry.
	k40 := w.Kernel(40)
	if k40.Name != "reduce" || k40.Block.Count() != 256 || k40.DivergenceEff != 1 || k40.CoalescingFactor != 4 {
		t.Errorf("defaults not applied: %+v", k40)
	}
	// Repeated instances differ in seed but share shape.
	if w.Kernel(0).Seed == w.Kernel(1).Seed {
		t.Error("repeated instances share a seed")
	}
	if w.Kernel(0).Grid != w.Kernel(1).Grid {
		t.Error("repeated instances differ in shape")
	}
}

func TestFromJSONRejections(t *testing.T) {
	cases := map[string]string{
		"not json":      `nope`,
		"no name":       `{"kernels":[{"name":"k","grid":[1,1,1],"mix":{"compute":1}}]}`,
		"no kernels":    `{"name":"x","kernels":[]}`,
		"unnamed":       `{"name":"x","kernels":[{"grid":[1,1,1],"mix":{"compute":1}}]}`,
		"unknown field": `{"name":"x","bogus":1,"kernels":[{"name":"k","grid":[1,1,1],"mix":{"compute":1}}]}`,
		"no instrs":     `{"name":"x","kernels":[{"name":"k","grid":[1,1,1]}]}`,
		"huge block":    `{"name":"x","kernels":[{"name":"k","grid":[1,1,1],"block":[2048,1,1],"mix":{"compute":1}}]}`,
		"bad strided":   `{"name":"x","kernels":[{"name":"k","grid":[1,1,1],"strided_fraction":2,"mix":{"compute":1}}]}`,
	}
	for name, doc := range cases {
		if _, err := FromJSON(strings.NewReader(doc)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestLoadJSON(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "w.json")
	if err := writeFile(path, validDoc); err != nil {
		t.Fatal(err)
	}
	w, err := LoadJSON(path)
	if err != nil {
		t.Fatal(err)
	}
	if w.N != 60 {
		t.Errorf("N = %d", w.N)
	}
	if _, err := LoadJSON(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("missing file loaded")
	}
}

func TestFromJSONDefaultSuite(t *testing.T) {
	doc := `{"name":"solo","kernels":[{"name":"k","grid":[8,1,1],"mix":{"compute":10}}]}`
	w, err := FromJSON(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if w.Suite != "user" {
		t.Errorf("suite = %q, want user", w.Suite)
	}
	k := w.Kernel(0)
	if err := k.Validate(); err != nil {
		t.Error(err)
	}
	var _ trace.KernelDesc = k
}

func writeFile(path, content string) error {
	return os.WriteFile(path, []byte(content), 0o644)
}

// TestWriteJSONRoundTrip: every catalogue workload of at most 100 000
// launches, written as a document and read back, is the workload itself —
// its identity, its quirk and every launch, seed included.
func TestWriteJSONRoundTrip(t *testing.T) {
	launches := 0
	for _, src := range All() {
		if src.N > 100_000 {
			continue
		}
		var buf bytes.Buffer
		if err := WriteJSON(&buf, src); err != nil {
			t.Fatalf("%s: %v", src.FullName(), err)
		}
		w, err := FromJSON(&buf)
		if err != nil {
			t.Fatalf("%s: %v", src.FullName(), err)
		}
		if w.Suite != src.Suite || w.Name != src.Name || w.N != src.N || w.Quirk != src.Quirk {
			t.Fatalf("loaded %s (N=%d, quirk %q), want %s (N=%d, quirk %q)", w.FullName(), w.N, w.Quirk, src.FullName(), src.N, src.Quirk)
		}
		for i := 0; i < w.N; i++ {
			if got, want := w.Kernel(i), src.Kernel(i); got != want {
				t.Fatalf("%s: launch %d round-tripped as %+v, want %+v", src.FullName(), i, got, want)
			}
		}
		launches += w.N
	}
	t.Logf("%d launches round-tripped", launches)
}

// TestWriteJSONRefusesOversizedWorkload: a workload of more launches than a
// document may hold is refused before a byte is written, by an error that
// names the bound, rather than written as a file FromJSON refuses.
func TestWriteJSONRefusesOversizedWorkload(t *testing.T) {
	w := Find("MLPerf/ssd_training")
	if w.N <= MaxJSONKernels {
		t.Fatalf("%s has %d launches, not more than MaxJSONKernels", w.FullName(), w.N)
	}
	var buf bytes.Buffer
	err := WriteJSON(&buf, w)
	if err == nil || !strings.Contains(err.Error(), strconv.Itoa(MaxJSONKernels)) {
		t.Errorf("err %v, want one naming the bound %d", err, MaxJSONKernels)
	}
	if buf.Len() != 0 {
		t.Errorf("wrote %d bytes before refusing", buf.Len())
	}
}
