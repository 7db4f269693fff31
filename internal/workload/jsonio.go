package workload

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"pka/internal/trace"
)

// A workload document is the one file format of a workload. It lets
// downstream users run the PKA pipeline on their own applications without
// writing Go: a document lists kernel launches (optionally repeated), in
// launch order. WriteJSON writes any workload as one, an entry per launch
// with its exact seed, and FromJSON reads that back launch for launch.
//
//	{
//	  "suite": "mine", "name": "pipeline",
//	  "kernels": [
//	    {"name": "map",    "grid": [640,1,1], "block": [256,1,1],
//	     "mix": {"compute": 150, "global_loads": 4, "global_stores": 1},
//	     "coalescing_factor": 4, "working_set_bytes": 8388608,
//	     "strided_fraction": 0.95, "divergence_eff": 1.0, "repeat": 40},
//	    {"name": "reduce", "grid": [512,1,1], "block": [256,1,1],
//	     "mix": {"compute": 12, "global_loads": 24},
//	     "coalescing_factor": 4, "working_set_bytes": 536870912,
//	     "strided_fraction": 0.4, "divergence_eff": 1.0, "repeat": 20}
//	  ]
//	}

// KernelJSON is one launch entry of a workload document.
type KernelJSON struct {
	Name  string `json:"name"`
	Grid  [3]int `json:"grid"`
	Block [3]int `json:"block"`

	Mix struct {
		GlobalLoads   int `json:"global_loads"`
		GlobalStores  int `json:"global_stores"`
		LocalLoads    int `json:"local_loads"`
		SharedLoads   int `json:"shared_loads"`
		SharedStores  int `json:"shared_stores"`
		GlobalAtomics int `json:"global_atomics"`
		Compute       int `json:"compute"`
		TensorOps     int `json:"tensor_ops"`
	} `json:"mix"`

	RegsPerThread     int     `json:"regs_per_thread"`
	SharedMemPerBlock int     `json:"shared_mem_per_block"`
	CoalescingFactor  float64 `json:"coalescing_factor"`
	WorkingSetBytes   int64   `json:"working_set_bytes"`
	StridedFraction   float64 `json:"strided_fraction"`
	DivergenceEff     float64 `json:"divergence_eff"`
	BlockImbalance    float64 `json:"block_imbalance"`

	// Repeat launches this kernel N consecutive times (default 1). Each
	// instance gets a distinct deterministic seed.
	Repeat int `json:"repeat,omitempty"`
	// Seed, when set, is the launch's exact seed. It names one launch, so
	// it cannot be combined with a repeat above 1.
	Seed *uint64 `json:"seed,omitempty"`
}

// WorkloadJSON is the document root.
type WorkloadJSON struct {
	Suite   string       `json:"suite"`
	Name    string       `json:"name"`
	Kernels []KernelJSON `json:"kernels"`
}

// Document bounds. JSON workloads expand eagerly (unlike the study's
// index-generated streams), so a hostile or typo'd document must not be
// able to allocate unbounded memory before validation rejects it.
const (
	// MaxJSONRepeat bounds one entry's repeat count.
	MaxJSONRepeat = 1 << 20
	// MaxJSONKernels bounds the total expanded launch count.
	MaxJSONKernels = 1 << 20
	// maxGridX / maxGridYZ mirror CUDA's launch-dimension limits.
	maxGridX  = 1<<31 - 1
	maxGridYZ = 65535
)

// FromJSON parses a workload document and validates every kernel. A
// document naming a catalogue workload gives the result that workload's
// Quirk.
func FromJSON(r io.Reader) (*Workload, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var doc WorkloadJSON
	if err := dec.Decode(&doc); err != nil {
		return nil, fmt.Errorf("workload: parsing JSON: %w", err)
	}
	if doc.Name == "" {
		return nil, fmt.Errorf("workload: document needs a name")
	}
	if doc.Suite == "" {
		doc.Suite = "user"
	}
	if len(doc.Kernels) == 0 {
		return nil, fmt.Errorf("workload: document has no kernels")
	}

	var seq []trace.KernelDesc
	for i, kj := range doc.Kernels {
		k, err := kj.toKernel(doc.Name, i)
		if err != nil {
			return nil, err
		}
		repeat := kj.Repeat
		if repeat < 0 {
			return nil, fmt.Errorf("workload: kernel %d of %q has negative repeat %d", i, doc.Name, repeat)
		}
		if repeat > MaxJSONRepeat {
			return nil, fmt.Errorf("workload: kernel %d of %q repeats %d times (max %d)", i, doc.Name, repeat, MaxJSONRepeat)
		}
		if repeat == 0 {
			repeat = 1
		}
		if kj.Seed != nil && repeat > 1 {
			return nil, fmt.Errorf("workload: kernel %d of %q sets a seed and repeats %d times", i, doc.Name, repeat)
		}
		if len(seq)+repeat > MaxJSONKernels {
			return nil, fmt.Errorf("workload: document %q expands past %d kernel launches", doc.Name, MaxJSONKernels)
		}
		for r := 0; r < repeat; r++ {
			inst := k
			if kj.Seed != nil {
				inst.Seed = *kj.Seed
			} else {
				inst.Seed = seedOf(doc.Name+k.Name, uint64(i)<<20|uint64(r))
			}
			seq = append(seq, inst)
		}
	}
	w := fixedSeq(doc.Suite, doc.Name, seq)
	if err := w.Validate(0); err != nil {
		return nil, err
	}
	if reg := Find(w.FullName()); reg != nil {
		w.Quirk = reg.Quirk
	}
	return w, nil
}

// WriteJSON writes wl as a workload document, one entry a line: an entry
// per launch, every field and the exact seed set. FromJSON reads it back
// launch for launch wherever its defaults leave the launches alone, as they
// do every catalogue workload's and every loaded document's. A workload of
// more launches than a document may hold is an error before anything is
// written.
func WriteJSON(w io.Writer, wl *Workload) error {
	if wl.N < 1 || wl.N > MaxJSONKernels {
		return fmt.Errorf("workload: %s has %d kernel launches; a document holds 1 to %d (MaxJSONKernels)", wl.FullName(), wl.N, MaxJSONKernels)
	}
	suite, _ := json.Marshal(wl.Suite) // a string always marshals
	name, _ := json.Marshal(wl.Name)
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "{\"suite\":%s,\"name\":%s,\"kernels\":[\n", suite, name)
	for i := 0; i < wl.N; i++ {
		k := wl.Kernel(i)
		line, err := json.Marshal(toJSON(&k))
		if err != nil {
			return err
		}
		if i > 0 {
			bw.WriteString(",\n")
		}
		bw.Write(line)
	}
	bw.WriteString("\n]}\n")
	return bw.Flush()
}

// LoadJSON reads a workload document from a file; "-" reads standard
// input.
func LoadJSON(path string) (*Workload, error) {
	if path == "-" {
		return FromJSON(os.Stdin)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return FromJSON(f)
}

// toJSON is k as a document entry that names its one launch exactly.
func toJSON(k *trace.KernelDesc) KernelJSON {
	kj := KernelJSON{
		Name:              k.Name,
		Grid:              [3]int{k.Grid.X, k.Grid.Y, k.Grid.Z},
		Block:             [3]int{k.Block.X, k.Block.Y, k.Block.Z},
		RegsPerThread:     k.RegsPerThread,
		SharedMemPerBlock: k.SharedMemPerBlock,
		CoalescingFactor:  k.CoalescingFactor,
		WorkingSetBytes:   k.WorkingSetBytes,
		StridedFraction:   k.StridedFraction,
		DivergenceEff:     k.DivergenceEff,
		BlockImbalance:    k.BlockImbalance,
		Seed:              &k.Seed,
	}
	kj.Mix.GlobalLoads = k.Mix.GlobalLoads
	kj.Mix.GlobalStores = k.Mix.GlobalStores
	kj.Mix.LocalLoads = k.Mix.LocalLoads
	kj.Mix.SharedLoads = k.Mix.SharedLoads
	kj.Mix.SharedStores = k.Mix.SharedStores
	kj.Mix.GlobalAtomics = k.Mix.GlobalAtomics
	kj.Mix.Compute = k.Mix.Compute
	kj.Mix.TensorOps = k.Mix.TensorOps
	return kj
}

func (kj *KernelJSON) toKernel(doc string, idx int) (trace.KernelDesc, error) {
	if kj.Name == "" {
		return trace.KernelDesc{}, fmt.Errorf("workload: kernel %d of %q has no name", idx, doc)
	}
	k := trace.KernelDesc{
		Name:              kj.Name,
		Grid:              trace.Dim3{X: kj.Grid[0], Y: kj.Grid[1], Z: kj.Grid[2]},
		Block:             trace.Dim3{X: kj.Block[0], Y: kj.Block[1], Z: kj.Block[2]},
		RegsPerThread:     kj.RegsPerThread,
		SharedMemPerBlock: kj.SharedMemPerBlock,
		Mix: trace.InstrMix{
			GlobalLoads:   kj.Mix.GlobalLoads,
			GlobalStores:  kj.Mix.GlobalStores,
			LocalLoads:    kj.Mix.LocalLoads,
			SharedLoads:   kj.Mix.SharedLoads,
			SharedStores:  kj.Mix.SharedStores,
			GlobalAtomics: kj.Mix.GlobalAtomics,
			Compute:       kj.Mix.Compute,
			TensorOps:     kj.Mix.TensorOps,
		},
		CoalescingFactor: kj.CoalescingFactor,
		WorkingSetBytes:  kj.WorkingSetBytes,
		StridedFraction:  kj.StridedFraction,
		BlockImbalance:   kj.BlockImbalance,
		DivergenceEff:    kj.DivergenceEff,
	}
	// Friendly defaults for under-specified documents.
	if k.Block == (trace.Dim3{}) {
		k.Block = trace.D1(256)
	}
	if k.Grid.Y == 0 {
		k.Grid.Y = 1
	}
	if k.Grid.Z == 0 {
		k.Grid.Z = 1
	}
	if k.Block.Y == 0 {
		k.Block.Y = 1
	}
	if k.Block.Z == 0 {
		k.Block.Z = 1
	}
	if k.CoalescingFactor == 0 {
		k.CoalescingFactor = 4
	}
	if k.DivergenceEff == 0 {
		k.DivergenceEff = 1
	}
	if k.WorkingSetBytes == 0 {
		k.WorkingSetBytes = 1 << 20
	}
	if err := checkLaunch(&k); err != nil {
		return trace.KernelDesc{}, fmt.Errorf("workload: kernel %d of %q: %w", idx, doc, err)
	}
	return k, nil
}

// checkLaunch holds a document entry's launch to what the substrates can
// run: CUDA's grid limits, no negative instruction-mix count or resource,
// and trace's Validate.
func checkLaunch(k *trace.KernelDesc) error {
	if k.Grid.X > maxGridX || k.Grid.Y > maxGridYZ || k.Grid.Z > maxGridYZ {
		return fmt.Errorf("kernel %q grid %v exceeds launch limits", k.Name, k.Grid)
	}
	if blocks := int64(max(k.Grid.X, 1)) * int64(max(k.Grid.Y, 1)) * int64(max(k.Grid.Z, 1)); blocks > maxGridX {
		return fmt.Errorf("kernel %q launches %d blocks (max %d)", k.Name, blocks, maxGridX)
	}
	m := k.Mix
	if min(m.GlobalLoads, m.GlobalStores, m.LocalLoads, m.SharedLoads, m.SharedStores, m.GlobalAtomics, m.Compute, m.TensorOps) < 0 {
		return fmt.Errorf("kernel %q has a negative instruction-mix count", k.Name)
	}
	if k.RegsPerThread < 0 || k.SharedMemPerBlock < 0 || k.WorkingSetBytes < 0 {
		return fmt.Errorf("kernel %q has negative resource usage", k.Name)
	}
	return k.Validate()
}
