package sampling

import (
	"sync"

	"pka/internal/gpu"
	"pka/internal/trace"
)

// Speculator warms the Exec ladder for kernels that are *likely* to be
// elected representatives, while profiling is still running. It is pure
// cache-warming by construction: outcomes are pure functions of the
// content key, so a speculative run either lands in the mem/disk caches
// for the real fold to hit, or is joined in flight by the real run through
// the mem tier's singleflight — and a rep demoted by a later cluster
// revision costs only the warp instructions it simulated, never
// correctness.
//
// Speculate and Wait are safe for concurrent use; errors are swallowed
// (a failed warm just means the real run pays full price later).
type Speculator struct {
	exec  *Exec
	dev   gpu.Device
	tasks []KernelTask

	sem chan struct{}
	wg  sync.WaitGroup

	mu       sync.Mutex
	launched map[string]*specEntry
	sealed   bool
}

// specEntry tracks one speculative key's fate.
type specEntry struct {
	done       bool // simulation finished before Seal
	warpInstrs int64
}

// SpecStats summarizes how the speculation gamble went, resolved against
// the final representative set.
type SpecStats struct {
	// Launched is the number of (kernel, task) warms dispatched (a kernel's
	// tasks share one goroutine and, cold, one simulator pass).
	Launched int
	// Hits is how many of the final keys were warmed before Seal.
	Hits int
	// Demoted is how many warmed keys were NOT in the final set.
	Demoted int
	// WastedWarpInstrs is the simulation work spent on demoted keys.
	WastedWarpInstrs int64
	// OverlapFraction is the fraction of the final keys' warms that
	// completed before Seal — the share of reconciliation work that
	// overlapped profiling.
	OverlapFraction float64
}

// NewSpeculator builds a Speculator that warms each speculated kernel
// under every task spec in tasks (one per sampled mode the study will
// fold), running at most workers warms concurrently.
func NewSpeculator(e *Exec, dev gpu.Device, tasks []KernelTask, workers int) *Speculator {
	if workers < 1 {
		workers = 1
	}
	return &Speculator{
		exec:     e,
		dev:      dev,
		tasks:    tasks,
		sem:      make(chan struct{}, workers),
		launched: map[string]*specEntry{},
	}
}

// Speculate warms the ladder for kernel k under the given task specs — the
// configured ones when none are given — on one goroutine, in order, through a
// bank of their own: the first to reach the simulator carries the rest as
// riders, so the kernel is simulated once and each later task finds its
// outcome banked (and persists it under its own key). Each distinct content
// key is dispatched at most once per Speculator lifetime.
func (s *Speculator) Speculate(k trace.KernelDesc, tasks ...KernelTask) {
	if len(tasks) == 0 {
		tasks = s.tasks
	}
	var (
		passes []RiderPass
		keys   []string
		ents   []*specEntry
	)
	s.mu.Lock()
	for _, task := range tasks {
		key := TaskKey(s.dev, &k, task)
		if s.sealed || s.launched[key] != nil {
			continue
		}
		ent := &specEntry{}
		s.launched[key] = ent
		passes, keys, ents = append(passes, RiderPass{Task: task}), append(keys, key), append(ents, ent)
	}
	s.mu.Unlock()
	if len(ents) == 0 {
		return
	}

	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.sem <- struct{}{}
		defer func() { <-s.sem }()
		bank := NewBank(s.dev, []trace.KernelDesc{k}, passes...)
		for i, ent := range ents {
			oc, err := s.exec.run(keys[i], s.dev, k, passes[i].Task, TaskObs{Phase: "spec", Kernel: k.Name}, true, bank, nil, 0)
			if err != nil {
				continue
			}
			s.mu.Lock()
			// Work is recorded whenever it happened; only the overlap
			// credit respects the Seal cutoff.
			ent.warpInstrs = oc.SimWarpInstrs
			if !s.sealed {
				ent.done = true
			}
			s.mu.Unlock()
		}
	}()
}

// Seal marks the reconciliation cutoff: warms completing after Seal no
// longer count as overlapped. Call it when the final selection is known,
// before the real fold starts.
func (s *Speculator) Seal() {
	s.mu.Lock()
	s.sealed = true
	s.mu.Unlock()
}

// Wait blocks until every dispatched warm has finished — in-flight
// speculative simulations keep the singleflight entry warm for the real
// fold, so waiting is cheap and never discards work.
func (s *Speculator) Wait() { s.wg.Wait() }

// Resolve scores the speculation against the final keys actually folded
// (as produced by TaskKey for each final representative × task). It does
// not wait for in-flight warms; call after Seal.
func (s *Speculator) Resolve(finalKeys map[string]bool) SpecStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := SpecStats{Launched: len(s.launched)}
	completed := 0
	for key, ent := range s.launched {
		if finalKeys[key] {
			if ent.done {
				completed++
			}
			continue
		}
		st.Demoted++
		st.WastedWarpInstrs += ent.warpInstrs
	}
	st.Hits = completed
	if len(finalKeys) > 0 {
		st.OverlapFraction = float64(completed) / float64(len(finalKeys))
	}
	return st
}
