package predict

import (
	"pka/internal/artifact"
	"pka/internal/gpu"
	"pka/internal/pkp"
	"pka/internal/sampling"
	"pka/internal/workload"
)

// ScanOptions parameterizes ScanStore. The cap/PKP fields must match the
// study configuration whose warm cache is being mined — they determine
// which task specs (and so which content keys) the scan probes.
type ScanOptions struct {
	// KernelCapCycles is the sampled-mode cycle cap (0 applies
	// sim.DefaultMaxCycles), exactly as the study layer resolves it.
	KernelCapCycles int64
	// PKP parameterizes the ModePKA spec.
	PKP pkp.Options
	// FullSimBudget bounds which workloads get ModeFull probes (0 applies
	// sampling.DefaultFullSimBudget).
	FullSimBudget int64
}

// ScanSummary reports what a store scan covered.
type ScanSummary struct {
	Workloads int
	Kernels   int
	Probed    int // distinct content keys probed
	Hits      int // keys the store held a decodable outcome for
}

// ScanStore mines the content-addressed artifact store for training
// samples: for every kernel of every workload it probes the store under
// each task spec a study would issue (full simulation where feasible,
// PKS, and PKA), and each hit becomes one (features → outcome) example.
// Only outcomes the exact ladder produced ever enter the store, so the
// training set is simulation ground truth by construction.
func ScanStore(dev gpu.Device, store *artifact.Store, ws []*workload.Workload, o ScanOptions) ([]Sample, ScanSummary) {
	budget := o.FullSimBudget
	if budget <= 0 {
		budget = sampling.DefaultFullSimBudget
	}

	var samples []Sample
	var sum ScanSummary
	seen := map[string]bool{}
	for _, w := range ws {
		sum.Workloads++
		tasks := []sampling.KernelTask{
			sampling.SampledTask(o.KernelCapCycles, o.PKP, false),
			sampling.SampledTask(o.KernelCapCycles, o.PKP, true),
		}
		if w.ApproxWarpInstructions(budget) <= budget {
			tasks = append(tasks, sampling.KernelTask{Mode: sampling.ModeFull})
		}
		for i := 0; i < w.N; i++ {
			k := w.Kernel(i)
			sum.Kernels++
			for _, task := range tasks {
				key := sampling.TaskKey(dev, &k, task)
				if seen[key] {
					continue
				}
				seen[key] = true
				sum.Probed++
				raw, ok := store.Get(key)
				if !ok {
					continue
				}
				oc, err := sampling.DecodeOutcome(raw)
				if err != nil {
					continue
				}
				sum.Hits++
				samples = append(samples, Sample{Key: key, Kernel: k, Task: task, Outcome: oc})
			}
		}
	}
	return samples, sum
}
