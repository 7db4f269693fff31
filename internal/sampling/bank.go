package sampling

import (
	"slices"
	"sync"

	"pka/internal/gpu"
	"pka/internal/trace"
)

// RiderPass is one pass an evaluation will make over a Bank's kernels: the
// task spec it will issue, and the observe-only wiring its task for kernel i
// will carry (nil for none).
type RiderPass struct {
	Task KernelTask
	Obs  func(i int) TaskObs
}

// Bank lets one evaluation simulate each kernel once however many policies
// it asks about. A ModePKA run is a prefix of the ModePKS run of the same
// kernel, which is a prefix of its ModeFull run, so the first task to reach
// the simulator tier carries the evaluation's later passes over that kernel
// as riders (sim.RunProbes) and their outcomes wait here. A rider's own task
// later runs the ladder under its own key, finds its answer banked, is
// accounted TierSim and does the persisting — so every outcome is still
// written once, by the task that asked for it.
//
// Passes are listed longest policy first and resolved in that order: a task
// carries only the passes listed after its own (all of them when its own is
// not listed, as the full baseline's is not), so over a partly warm store no
// pass runs further than the outcomes still missing need. Riders are matched
// by content — the launch's key under the running task equals a kernel's —
// so whichever duplicate launch the scheduler reaches first does the pass.
//
// A Bank dies with its evaluation; an entry is left behind only when the
// rider's own task was served by the mem tier of a shared Exec. A nil *Bank
// is valid and carries nothing.
type Bank struct {
	dev     gpu.Device
	kernels []trace.KernelDesc
	passes  []RiderPass

	mu sync.Mutex
	// Both tables are made on first need: an all-hit study needs neither.
	keys   map[KernelTask][]string // the kernels' TaskKeys under one task spec
	banked map[string]KernelOutcome
}

// rider is one task riding along on another's simulator pass.
type rider struct {
	key  string
	task KernelTask
	obs  TaskObs
}

// NewBank plans an evaluation's passes over kernels, longest policy first.
func NewBank(dev gpu.Device, kernels []trace.KernelDesc, passes ...RiderPass) *Bank {
	return &Bank{dev: dev, kernels: kernels, passes: passes}
}

// Len reports how many banked outcomes have not been asked for yet.
func (b *Bank) Len() int {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.banked)
}

// keysUnder returns the kernels' TaskKeys under task. Callers hold mu.
func (b *Bank) keysUnder(task KernelTask) []string {
	keys, ok := b.keys[task]
	if !ok {
		if b.keys == nil {
			b.keys = map[KernelTask][]string{}
		}
		keys = taskKeys(b.dev, task, b.kernels)
		b.keys[task] = keys
	}
	return keys
}

// riders lists what the task keyed key should carry to the simulator.
func (b *Bank) riders(task KernelTask, key string) []rider {
	if b == nil {
		return nil
	}
	from := 1 + slices.IndexFunc(b.passes, func(p RiderPass) bool { return p.Task == task })
	if from == len(b.passes) {
		return nil
	}
	b.mu.Lock()
	i := slices.Index(b.keysUnder(task), key) // the first kernel of equal content
	var out []rider
	if i >= 0 {
		for _, p := range b.passes[from:] {
			out = append(out, rider{key: b.keysUnder(p.Task)[i], task: p.Task})
		}
	}
	b.mu.Unlock()
	// The wiring is the caller's code: run it outside the lock.
	for r := range out {
		if obs := b.passes[from+r].Obs; obs != nil {
			out[r].obs = obs(i)
		}
	}
	return out
}

// deposit banks the outcome a pass read for the rider keyed key.
func (b *Bank) deposit(key string, oc KernelOutcome) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.banked == nil {
		b.banked = map[string]KernelOutcome{}
	}
	b.banked[key] = oc
}

// take withdraws the outcome banked under key, if any.
func (b *Bank) take(key string) (KernelOutcome, bool) {
	if b == nil {
		return KernelOutcome{}, false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	oc, ok := b.banked[key]
	if ok {
		delete(b.banked, key)
	}
	return oc, ok
}
