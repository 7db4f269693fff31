// Package pka is the public API of this repository's from-scratch Go
// reproduction of "Principal Kernel Analysis: A Tractable Methodology to
// Simulate Scaled GPU Workloads" (Baddouh et al., MICRO 2021).
//
// The package re-exports the stable surface of the internal substrates:
//
//   - GPU device models (Volta V100, Turing RTX 2060, Ampere RTX 3070)
//     with occupancy rules and MPS-style SM masking;
//   - the kernel-launch representation (KernelDesc) and the 147-workload
//     study set across Rodinia, Parboil, Polybench, CUTLASS, DeepBench and
//     MLPerf;
//   - the analytical silicon model (ground truth) and the cycle-level GPU
//     simulator (the Accel-Sim stand-in);
//   - Principal Kernel Selection (PCA + K-Means over Table-2 profiler
//     metrics, with two-level profiling for million-kernel workloads),
//     Principal Kernel Projection (online IPC-stability detection), and
//     the combined PKA pipeline with error/speedup accounting;
//   - the TBPoint and first-N-instructions baselines; and
//   - the experiment generators that regenerate every table and figure of
//     the paper's evaluation.
//
// Quick start:
//
//	w := pka.FindWorkload("Rodinia/gauss_208")
//	cfg := pka.Config{Device: pka.VoltaV100()}
//	ev, err := pka.Evaluate(cfg, w)
//	// ev.Selection.K groups; ev.PKA.ErrorPct vs silicon; ev.PKA.SpeedupVsFull
//
// See DESIGN.md for the paper-to-module map and EXPERIMENTS.md for
// paper-versus-measured results.
package pka

import (
	"pka/internal/core"
	"pka/internal/experiments"
	"pka/internal/gpu"
	"pka/internal/pkp"
	"pka/internal/pks"
	"pka/internal/report"
	"pka/internal/sampling"
	"pka/internal/silicon"
	"pka/internal/sim"
	"pka/internal/tbpoint"
	"pka/internal/trace"
	"pka/internal/workload"
)

// Device and kernel modeling.
type (
	// Device is a GPU hardware configuration.
	Device = gpu.Device
	// Generation enumerates NVIDIA architecture generations.
	Generation = gpu.Generation
	// Occupancy describes how a kernel's blocks map onto an SM.
	Occupancy = gpu.Occupancy
	// KernelDesc describes one kernel launch.
	KernelDesc = trace.KernelDesc
	// InstrMix holds per-thread dynamic instruction counts.
	InstrMix = trace.InstrMix
	// Dim3 is a CUDA launch dimension.
	Dim3 = trace.Dim3
	// Workload is a named, deterministic stream of kernel launches.
	Workload = workload.Workload
)

// Selection and projection.
type (
	// SelectOptions configures Principal Kernel Selection.
	SelectOptions = pks.Options
	// Selection is PKS's output: groups, representatives and weights.
	Selection = pks.Selection
	// Group is one cluster of similar kernels.
	Group = pks.Group
	// RepPolicy selects the per-group representative.
	RepPolicy = pks.RepPolicy
	// CrossGenResult reports a Volta selection evaluated on another
	// device's silicon.
	CrossGenResult = pks.CrossGenResult
	// ProjectorOptions configures Principal Kernel Projection.
	ProjectorOptions = pkp.Options
	// Projector detects IPC stability online inside the simulator.
	Projector = pkp.Projector
	// Projection extrapolates full-kernel statistics from a truncated
	// simulation.
	Projection = pkp.Projection
)

// Pipeline and results.
type (
	// Config parameterizes an evaluation.
	Config = core.Config
	// Evaluation bundles one workload's full results.
	Evaluation = core.Evaluation
	// SampledSim is the outcome of simulating only selected kernels.
	SampledSim = core.SampledSim
	// SimOptions tunes a kernel simulation run.
	SimOptions = sim.Options
	// KernelResult aggregates one simulated kernel.
	KernelResult = sim.KernelResult
	// Telemetry is the per-cycle view handed to simulation controllers.
	Telemetry = sim.Telemetry
	// Controller observes simulation progress and may stop it early.
	Controller = sim.Controller
	// SiliconResult describes a kernel execution on modeled hardware.
	SiliconResult = silicon.Result
	// TBPointSelection is the TBPoint baseline's output.
	TBPointSelection = tbpoint.Selection
	// Study memoizes experiment state across table/figure generators.
	Study = experiments.Study
	// Table is an ASCII/CSV result table.
	Table = report.Table
	// Chart is an ASCII multi-series plot.
	Chart = report.Chart
)

// Representative policies (paper Section 3.1).
const (
	RepFirstChronological = pks.RepFirstChronological
	RepClusterCenter      = pks.RepClusterCenter
	RepRandom             = pks.RepRandom
)

// PKP defaults (paper Section 3.2: one setting for all 147 workloads).
const (
	DefaultStabilityThreshold = pkp.DefaultThreshold
	DefaultStabilityWindow    = pkp.DefaultWindow
)

// ErrInfeasible reports a workload beyond the full-simulation budget.
var ErrInfeasible = sampling.ErrInfeasible

// VoltaV100 returns the Tesla V100 configuration (the selection machine).
func VoltaV100() Device { return gpu.VoltaV100() }

// TuringRTX2060 returns the GeForce RTX 2060 configuration.
func TuringRTX2060() Device { return gpu.TuringRTX2060() }

// AmpereRTX3070 returns the GeForce RTX 3070 configuration.
func AmpereRTX3070() Device { return gpu.AmpereRTX3070() }

// D1 is shorthand for a one-dimensional launch dimension.
func D1(x int) Dim3 { return trace.D1(x) }

// D2 is shorthand for a two-dimensional launch dimension.
func D2(x, y int) Dim3 { return trace.D2(x, y) }

// AllWorkloads returns the full 147-workload study set.
func AllWorkloads() []*Workload { return workload.All() }

// WorkloadsBySuite returns one suite's workloads ("Rodinia", "Parboil",
// "Polybench", "Cutlass", "DeepBench", "MLPerf").
func WorkloadsBySuite(suite string) []*Workload { return workload.BySuite(suite) }

// FindWorkload returns the workload named "suite/name", or nil.
func FindWorkload(fullName string) *Workload { return workload.Find(fullName) }

// NewWorkload returns your own application as a workload: suite/name, n
// launches, launch i described by gen(i). gen must be deterministic; it is
// fixed for the workload's life, which lets the workload remember what its
// launches add up to between studies.
func NewWorkload(suite, name string, n int, gen func(i int) KernelDesc) *Workload {
	return workload.New(suite, name, n, gen)
}

// LoadWorkloadJSON reads a user-defined workload document from disk: a
// list of kernel launches with optional repeat counts or exact seeds; "-"
// reads standard input.
func LoadWorkloadJSON(path string) (*Workload, error) { return workload.LoadJSON(path) }

// Select runs Principal Kernel Selection for a workload on a device.
func Select(dev Device, w *Workload, opts SelectOptions) (*Selection, error) {
	return pks.Select(dev, w, opts)
}

// ProjectOnDevice reuses a selection on another device's silicon — the
// paper's cross-generation validation.
func ProjectOnDevice(dev Device, w *Workload, sel *Selection) (CrossGenResult, error) {
	return pks.ProjectOnDevice(dev, w, sel)
}

// NewProjector returns a Principal Kernel Projection controller.
func NewProjector(opts ProjectorOptions) *Projector { return pkp.New(opts) }

// NewSimulator returns a cycle-level simulator for the device.
func NewSimulator(dev Device) *Simulator { return sim.New(dev) }

// Simulator is the cycle-level GPU simulator (the Accel-Sim stand-in).
type Simulator = sim.Simulator

// ExecuteSilicon runs one kernel on the modeled hardware (ground truth).
func ExecuteSilicon(dev Device, k *KernelDesc) (SiliconResult, error) {
	return silicon.ExecuteKernel(dev, k)
}

// Evaluate runs the complete PKA pipeline for one workload.
func Evaluate(cfg Config, w *Workload) (*Evaluation, error) { return core.Evaluate(cfg, w) }

// RunSampled simulates only a selection's representatives (PKA when
// usePKP is true) and projects application-level metrics.
func RunSampled(cfg Config, w *Workload, sel *Selection, usePKP bool) (SampledSim, error) {
	return core.RunSampled(cfg, w, sel, usePKP)
}

// FullSim simulates every kernel; it returns ErrInfeasible beyond the
// budget (0 = default).
func FullSim(dev Device, w *Workload, budgetWarpInstrs int64) (*SampledSim, error) {
	ev, err := core.Plan{Passes: []sampling.TaskMode{sampling.ModeFull}}.Evaluate(Config{Device: dev, FullSimBudget: budgetWarpInstrs}, w, nil)
	if err != nil {
		return nil, err
	}
	return ev.Full, nil
}

// FirstN runs the first-N-instructions baseline (0 = default budget).
func FirstN(dev Device, w *Workload, nWarpInstrs int64) (*SampledSim, error) {
	ev, err := core.Plan{Passes: []sampling.TaskMode{sampling.ModeFirstN}, FirstN: nWarpInstrs}.Evaluate(Config{Device: dev}, w, nil)
	if err != nil {
		return nil, err
	}
	return &ev.OneB, nil
}

// TBPointSelect runs the TBPoint baseline's kernel clustering.
func TBPointSelect(dev Device, w *Workload) (*TBPointSelection, error) {
	return tbpoint.Select(dev, w)
}

// NewStudy returns a memoizing experiment harness with the paper's
// configuration. Generators: Figure1..Figure10, Table3, Table4 and the
// ablations live in the same package surface:
//
//	study := pka.NewStudy()
//	tab, err := pka.Table3(study)
//
// A Study is safe for concurrent use: artifacts memoize through
// singleflight caches, and generators fan per-workload computation across
// Config.Parallelism workers (0 = GOMAXPROCS, 1 = serial) while emitting
// byte-identical output at any setting.
func NewStudy() *Study { return experiments.New() }

// Experiment generators, re-exported for API users; each regenerates one
// of the paper's tables or figures from the study state.
var (
	Figure1  = experiments.Figure1
	Table3   = experiments.Table3
	Figure4  = experiments.Figure4
	Figure5  = experiments.Figure5
	Figure6  = experiments.Figure6
	Figure7  = experiments.Figure7
	Figure8  = experiments.Figure8
	Table4   = experiments.Table4
	Figure9  = experiments.Figure9
	Figure10 = experiments.Figure10
)
