package sampling

import (
	"slices"
	"sync"

	"pka/internal/gpu"
	"pka/internal/trace"
)

// RiderPass is one pass an evaluation will make: the task spec it will issue,
// the launches it will issue it for, their TaskKeys under that spec where the
// caller holds them (a Scan's Keys; nil derives them), the observe-only
// wiring its task for launch i will carry (nil for none), and — set by
// Pack.Bind — the evaluation's pack and the place of the pass's first outcome
// in it.
type RiderPass struct {
	Task    KernelTask
	Kernels []trace.KernelDesc
	Keys    []string
	Obs     func(i int) TaskObs
	Pack    *Pack
	At      int
}

// Bank lets one evaluation simulate each kernel once however many policies
// it asks about. Every policy's run of a kernel is a prefix of its ModeFull
// run, and sim.RunProbes reads any set of them off one pass, so the first
// task to reach the simulator tier carries the evaluation's later passes over
// that kernel as riders and their outcomes wait here. A rider's own task
// later runs the ladder under its own key, finds its answer banked, is
// accounted TierSim and does the persisting — so every outcome is still
// written once, by the task that asked for it.
//
// Passes are resolved in the order listed: a task carries only the passes
// listed after its own (all of them when its own is not listed, as the full
// baseline's is not), so over a partly warm store no pass runs further than
// the outcomes still missing need. Riders are matched by content — a pass's
// launch whose key under that pass's task equals the running kernel's — so
// whichever duplicate launch the scheduler reaches first does the pass.
//
// A Bank dies with its evaluation; an entry is left behind only when the
// rider's own task was served by the mem tier of a shared Exec. A nil *Bank
// is valid and carries nothing.
type Bank struct {
	dev    gpu.Device
	passes []RiderPass

	mu sync.Mutex
	// Both tables are made on first need: an all-hit study needs neither.
	keys   map[passKeys][]string
	banked map[string]KernelOutcome
}

// passKeys names the TaskKeys of one pass's launches under one task spec.
type passKeys struct {
	task KernelTask
	pass int
}

// rider is one task riding along on another's simulator pass.
type rider struct {
	key  string
	task KernelTask
	obs  TaskObs
}

// NewBank plans an evaluation's passes, in the order they will run.
func NewBank(dev gpu.Device, passes ...RiderPass) *Bank {
	return &Bank{dev: dev, passes: passes}
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

// keysUnder returns pass p's launches' TaskKeys under task: the pass's own
// Keys when task is its spec and it carries them. Callers hold mu.
func (b *Bank) keysUnder(task KernelTask, p int) []string {
	if pass := b.passes[p]; task == pass.Task && len(pass.Keys) == len(pass.Kernels) {
		return pass.Keys
	}
	pk := passKeys{task, p}
	keys, ok := b.keys[pk]
	if !ok {
		if b.keys == nil {
			b.keys = map[passKeys][]string{}
		}
		keys = taskKeys(b.dev, task, b.passes[p].Kernels)
		b.keys[pk] = keys
	}
	return keys
}

// riders lists what the task keyed key should carry to the simulator.
func (b *Bank) riders(task KernelTask, key string) []rider {
	if b == nil {
		return nil
	}
	from := 1 + slices.IndexFunc(b.passes, func(p RiderPass) bool { return p.Task == task })
	var out []rider
	for p := from; p < len(b.passes); p++ {
		pass, r := b.passes[p], rider{task: b.passes[p].Task}
		b.mu.Lock()
		i := slices.Index(b.keysUnder(task, p), key) // the first launch of equal content
		if i >= 0 {
			r.key = b.keysUnder(pass.Task, p)[i]
		}
		b.mu.Unlock()
		if i < 0 {
			continue
		}
		if pass.Obs != nil { // the caller's code: run it outside the lock
			r.obs = pass.Obs(i)
		}
		out = append(out, r)
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

// holds reports whether an outcome is banked under key.
func (b *Bank) holds(key string) bool {
	if b == nil {
		return false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	_, ok := b.banked[key]
	return ok
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
