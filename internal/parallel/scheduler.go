package parallel

import (
	"container/heap"
	"sync"
	"sync/atomic"
)

// Scheduler is a process-wide bounded work queue that runs submitted tasks
// longest-first: each task carries an estimated cost (the study layer uses
// a kernel's dynamic warp-instruction count) and, whenever a worker frees
// up, the most expensive queued task runs next. Longest-task-first keeps a
// huge kernel from being dequeued last and pinning the whole study's
// wall-clock to one straggler — the big workload's kernels interleave with
// everyone else's instead of queuing behind them.
//
// A Scheduler spawns workers on demand up to its width and lets them exit
// when the queue drains, so an idle Scheduler holds no goroutines and
// needs no Close; a SchedMap caller counts as a worker while it waits (see
// SchedMap). Ties in cost break FIFO (submission order), which keeps
// the execution order deterministic for a given submission order. The
// scheduler only chooses *when* tasks run; callers that need deterministic
// results merge task outputs by submission index (see SchedMap), so the
// output is byte-identical at any width.
type Scheduler struct {
	width int

	mu      sync.Mutex
	queue   taskHeap
	seq     uint64
	running int
}

// NewScheduler returns a scheduler running at most Workers(workers) tasks
// concurrently.
func NewScheduler(workers int) *Scheduler {
	return &Scheduler{width: Workers(workers)}
}

// submit enqueues one task and spawns a worker for it when the pool is
// not already at width.
func (s *Scheduler) submit(cost int64, run func()) {
	obs := observer()
	if obs != nil {
		obs.TaskQueued()
	}
	wrapped := func() {
		if obs != nil {
			obs.TaskStarted()
		}
		run()
		if obs != nil {
			obs.TaskDone()
		}
	}
	s.mu.Lock()
	heap.Push(&s.queue, schedTask{cost: cost, seq: s.seq, run: wrapped})
	s.seq++
	spawn := s.running < s.width
	if spawn {
		s.running++
	}
	s.mu.Unlock()
	if spawn {
		go s.work(nil)
	}
}

// work drains the queue highest-cost-first on the calling goroutine, which
// holds a slot, and gives the slot up when the queue is empty. A SchedMap
// caller passes the count of its own unsettled tasks and stops at zero too,
// handing its slot to a fresh worker when other callers' tasks are queued.
func (s *Scheduler) work(left *atomic.Int64) {
	for {
		s.mu.Lock()
		if s.queue.Len() == 0 {
			s.running--
			s.mu.Unlock()
			return
		}
		if left != nil && left.Load() == 0 {
			s.mu.Unlock()
			go s.work(nil)
			return
		}
		t := heap.Pop(&s.queue).(schedTask)
		s.mu.Unlock()
		t.run()
	}
}

// SchedMap applies fn to every item through the scheduler, prioritized by
// cost (descending; a nil cost is equal cost, so items start in input
// order), and returns the results in input order with deterministic error
// semantics: every item is attempted, panics are contained as *PanicError,
// and the returned error is the lowest-indexed failure. A nil scheduler
// runs the items inline, serially in input order — the same results,
// computed on the calling goroutine.
//
// The caller's goroutine returns once every item has finished, and does not
// idle meanwhile: a caller that finds a slot free takes it before submitting
// and works the queue itself until its own items are done. So items run on
// the caller and on the scheduler's workers, interleaved with any other
// SchedMap's, never more than width at once, and a lone call at width 1
// starts no goroutine at all.
func SchedMap[T, R any](s *Scheduler, items []T, cost func(item T) int64, fn func(i int, item T) (R, error)) ([]R, error) {
	n := len(items)
	if n == 0 {
		return nil, nil
	}
	results := make([]R, n)
	errs := make([]error, n)
	if s == nil {
		obs := observer()
		for i := range items {
			if obs != nil {
				obs.TaskQueued()
				obs.TaskStarted()
			}
			results[i], errs[i] = protect(func() (R, error) { return fn(i, items[i]) })
			if obs != nil {
				obs.TaskDone()
			}
		}
	} else {
		var left atomic.Int64 // tasks of this batch not settled yet
		left.Store(int64(n))
		done := make(chan struct{})
		s.mu.Lock()
		helping := s.running < s.width // a free slot: take it and work the queue here
		if helping {
			s.running++
		}
		s.mu.Unlock()
		for i := range items {
			var c int64
			if cost != nil {
				c = cost(items[i])
			}
			s.submit(c, func() {
				results[i], errs[i] = protect(func() (R, error) { return fn(i, items[i]) })
				if left.Add(-1) == 0 {
					close(done)
				}
			})
		}
		if helping {
			s.work(&left)
		}
		<-done
	}
	for _, err := range errs {
		if err != nil {
			return results, err
		}
	}
	return results, nil
}

// schedTask is one queued unit of work.
type schedTask struct {
	cost int64
	seq  uint64
	run  func()
}

// taskHeap is a max-heap on cost with FIFO sequence tiebreak.
type taskHeap []schedTask

func (h taskHeap) Len() int { return len(h) }
func (h taskHeap) Less(i, j int) bool {
	if h[i].cost != h[j].cost {
		return h[i].cost > h[j].cost
	}
	return h[i].seq < h[j].seq
}
func (h taskHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *taskHeap) Push(x interface{}) { *h = append(*h, x.(schedTask)) }
func (h *taskHeap) Pop() interface{} {
	old := *h
	n := len(old)
	t := old[n-1]
	old[n-1] = schedTask{}
	*h = old[:n-1]
	return t
}
