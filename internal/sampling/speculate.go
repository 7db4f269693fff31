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
	// Launched is the number of (kernel, task) warms dispatched.
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

// Speculate warms the ladder for kernel k under every configured task
// spec. Each distinct content key is dispatched at most once per
// Speculator lifetime.
func (s *Speculator) Speculate(k trace.KernelDesc) {
	for _, task := range s.tasks {
		s.SpeculateTask(k, task)
	}
}

// SpeculateTask warms the ladder for one explicit (kernel, task) pair.
func (s *Speculator) SpeculateTask(k trace.KernelDesc, task KernelTask) {
	key := TaskKey(s.dev, &k, task)
	s.mu.Lock()
	if s.sealed || s.launched[key] != nil {
		s.mu.Unlock()
		return
	}
	ent := &specEntry{}
	s.launched[key] = ent
	s.mu.Unlock()

	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.sem <- struct{}{}
		defer func() { <-s.sem }()
		oc, err := s.exec.run(key, s.dev, k, task, TaskObs{Phase: "spec", Kernel: k.Name}, true)
		s.mu.Lock()
		defer s.mu.Unlock()
		if err == nil {
			// Work is recorded whenever it happened; only the overlap
			// credit respects the Seal cutoff.
			ent.warpInstrs = oc.SimWarpInstrs
			if !s.sealed {
				ent.done = true
			}
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
