// Package profiler models the two silicon profiling tools the paper's
// methodology is built around:
//
//   - Detailed profiling (Nsight Compute): per-kernel collection of the
//     twelve microarchitecture-agnostic Table-2 metrics plus cycle counts.
//     Kernel replay makes it enormously slow — the paper's Figure 1 shows
//     profiling times growing from hours to years — so the cost model
//     charges a large multiplicative replay overhead plus a fixed
//     per-kernel launch cost.
//
//   - Lightweight profiling (Nsight Systems, augmented with PyProf-style
//     NVTX annotations for ML workloads): only the kernel name and launch
//     dimensions, at near-native speed.
//
// PKA's two-level profiling falls out of this cost asymmetry: kernels are
// profiled in detail until a budget (default: one week of modeled wall
// time) is exhausted, and lightly afterwards.
package profiler

import (
	"pka/internal/gpu"
	"pka/internal/silicon"
	"pka/internal/trace"
)

// Cost-model constants for modeled profiling wall time.
const (
	// DetailedReplayOverhead multiplies kernel execution time under
	// Nsight-Compute-style replay (one pass per metric group).
	DetailedReplayOverhead = 2000.0
	// DetailedFixedSeconds is the per-kernel fixed cost of detailed
	// profiling (process attach, replay setup, counter readout). At this
	// cost the one-week budget covers ~240k kernels, which splits the
	// MLPerf suite the way the paper reports: ResNet and 3D-Unet profile
	// completely, SSD/BERT/GNMT trigger two-level profiling.
	DetailedFixedSeconds = 2.5
	// LightOverhead multiplies kernel execution time under lightweight
	// tracing.
	LightOverhead = 1.10
	// DefaultDetailedBudgetSeconds is one week, the paper's threshold for
	// "detailed silicon profiling is intractable".
	DefaultDetailedBudgetSeconds = 7 * 24 * 3600.0
)

// DetailedRecord is one kernel's detailed profile.
type DetailedRecord struct {
	KernelID int
	Name     string
	Grid     trace.Dim3
	Block    trace.Dim3

	Features    []float64 // Table-2 vector, trace.FeatureNames order
	Cycles      int64     // silicon cycles
	TimeSeconds float64
	DRAMUtil    float64
	L2MissRate  float64
}

// LightRecord is one kernel's lightweight profile: launch configuration,
// name, and the timeline duration — what an Nsight Systems trace exposes.
// No microarchitectural counters are available at this level.
type LightRecord struct {
	KernelID  int
	Name      string
	Grid      trace.Dim3
	Block     trace.Dim3
	SharedMem int
	// Cycles is the kernel's duration from the trace timeline. Two-level
	// selection uses it only for ground-truth totals, never as a
	// clustering feature.
	Cycles int64
}

// Detailed profiles one kernel in detail on the device, returning the
// record and the modeled profiling cost in seconds.
func Detailed(dev gpu.Device, k *trace.KernelDesc) (DetailedRecord, float64, error) {
	return DetailedInto(dev, k, nil)
}

// DetailedInto is Detailed with the record's Table-2 vector written over
// features[:0], so a pass that profiles launch after launch reuses one
// buffer: the record's Features is only good until the next call.
func DetailedInto(dev gpu.Device, k *trace.KernelDesc, features []float64) (DetailedRecord, float64, error) {
	res, err := silicon.ExecuteKernel(dev, k)
	if err != nil {
		return DetailedRecord{}, 0, err
	}
	rec := DetailedRecord{
		KernelID:    k.ID,
		Name:        k.Name,
		Grid:        k.Grid,
		Block:       k.Block,
		Features:    k.AppendFeatureVector(features[:0], dev),
		Cycles:      res.Cycles,
		TimeSeconds: res.TimeSeconds,
		DRAMUtil:    res.DRAMUtil,
		L2MissRate:  res.L2MissRate,
	}
	cost := res.TimeSeconds*DetailedReplayOverhead + DetailedFixedSeconds
	return rec, cost, nil
}

// Light profiles one kernel lightly, returning the record and the modeled
// profiling cost in seconds.
func Light(dev gpu.Device, k *trace.KernelDesc) (LightRecord, float64, error) {
	res, err := silicon.ExecuteKernel(dev, k)
	if err != nil {
		return LightRecord{}, 0, err
	}
	rec := LightRecord{
		KernelID:  k.ID,
		Name:      k.Name,
		Grid:      k.Grid,
		Block:     k.Block,
		SharedMem: k.SharedMemPerBlock,
		Cycles:    res.Cycles,
	}
	return rec, res.TimeSeconds * LightOverhead, nil
}

// NumLightFeatures is the dimension of the classification feature space
// shared by detailed and light records.
const NumLightFeatures = 4 + nameHashBuckets

const nameHashBuckets = 6

// LightFeatures converts launch-configuration data into the feature vector
// the two-level classifiers consume. The same function applies to detailed
// records (via their launch info), so training features and inference
// features come from an identical space.
func LightFeatures(name string, grid, block trace.Dim3, sharedMem int) []float64 {
	f := make([]float64, NumLightFeatures)
	f[0] = float64(grid.Count())
	f[1] = float64(block.Count())
	f[2] = float64(grid.Count()) * float64(block.Count()) // total threads
	f[3] = float64(sharedMem)
	// Character-trigram hashing of the kernel name. Clusters are
	// name-independent, but names still carry signal for mapping light
	// kernels onto detailed groups (GT-Pin used names outright).
	for i := 0; i+3 <= len(name); i++ {
		h := uint32(2166136261)
		for j := i; j < i+3; j++ {
			h = (h ^ uint32(name[j])) * 16777619
		}
		f[4+int(h%nameHashBuckets)]++
	}
	return f
}

// FeaturesOfLight returns the classification features of a light record.
func FeaturesOfLight(r LightRecord) []float64 {
	return LightFeatures(r.Name, r.Grid, r.Block, r.SharedMem)
}

// FeaturesOfDetailed returns the classification features of a detailed
// record's launch configuration (not its Table-2 vector — the classifier
// must only see information that light profiling also provides).
func FeaturesOfDetailed(r DetailedRecord, sharedMem int) []float64 {
	return LightFeatures(r.Name, r.Grid, r.Block, sharedMem)
}
