// Package parallel provides the bounded-concurrency primitives behind the
// experiment engine: a deterministic order-preserving Map, a longest-first
// task Scheduler (see scheduler.go), and a generic per-key singleflight
// Cache (see cache.go). The package exists so the 147-workload × 3-device
// artifact sweep can use every core while keeping rendered output
// byte-identical to a serial run: Map preserves input order and first-error
// semantics no matter how the scheduler interleaves workers, and Cache
// guarantees each expensive artifact is computed exactly once per key.
package parallel

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// Observer receives worker-occupancy events from every Map and Scheduler
// in the process: queue depth (submitted but not running) and active-worker
// transitions. Implementations must be cheap and concurrency-safe; they
// observe scheduling only and can never influence results.
type Observer interface {
	TaskQueued()  // task submitted, waiting for a worker slot
	TaskStarted() // worker slot acquired
	TaskDone()    // task finished (success, error, or contained panic)
}

// observerRef wraps the interface so it can live in an atomic.Pointer.
type observerRef struct{ o Observer }

var globalObserver atomic.Pointer[observerRef]

// SetObserver installs the process-wide pool observer (nil uninstalls).
// Typically wired once at CLI startup from internal/obs; the default is
// no observation.
func SetObserver(o Observer) {
	if o == nil {
		globalObserver.Store(nil)
		return
	}
	globalObserver.Store(&observerRef{o: o})
}

func observer() Observer {
	if ref := globalObserver.Load(); ref != nil {
		return ref.o
	}
	return nil
}

// Workers normalizes a parallelism knob: n > 0 is used as-is, anything
// else falls back to GOMAXPROCS (the pool's default width).
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// PanicError reports a panic recovered inside a worker. Containing panics
// as errors keeps one faulty item from tearing down a whole sweep and
// keeps -race stress tests from aborting mid-flight.
type PanicError struct {
	// Value is the value passed to panic.
	Value any
	// Stack is the worker's stack at recovery time.
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("parallel: worker panicked: %v", e.Value)
}

// protect invokes fn, converting a panic into a *PanicError.
func protect[R any](fn func() (R, error)) (r R, err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &PanicError{Value: v, Stack: debug.Stack()}
		}
	}()
	return fn()
}

// runObserved runs one task on the calling goroutine, reported to obs (nil
// for none) as a scheduled task is: queued, then started, then done, so the
// pool's queue-depth and active-worker gauges settle at zero.
func runObserved[R any](obs Observer, fn func() (R, error)) (R, error) {
	if obs != nil {
		obs.TaskQueued()
		obs.TaskStarted()
	}
	r, err := protect(fn)
	if obs != nil {
		obs.TaskDone()
	}
	return r, err
}

// Map applies fn to every item with at most Workers(workers) concurrent
// calls and returns the results in input order. Every item is attempted
// even when some fail, and the returned error is the lowest-indexed
// failure — so the (results, error) pair is deterministic regardless of
// goroutine scheduling. A panic inside fn is contained and surfaces as a
// *PanicError for that index.
func Map[T, R any](workers int, items []T, fn func(i int, item T) (R, error)) ([]R, error) {
	n := len(items)
	if n == 0 {
		return nil, nil
	}
	w := Workers(workers)
	if w > n {
		w = n
	}
	results := make([]R, n)
	errs := make([]error, n)
	obs := observer()
	if w == 1 {
		for i := range items {
			results[i], errs[i] = runObserved(obs, func() (R, error) { return fn(i, items[i]) })
		}
	} else {
		idx := make(chan int)
		var wg sync.WaitGroup
		wg.Add(w)
		for g := 0; g < w; g++ {
			go func() {
				defer wg.Done()
				for i := range idx {
					i := i
					if obs != nil {
						obs.TaskStarted()
					}
					results[i], errs[i] = protect(func() (R, error) { return fn(i, items[i]) })
					if obs != nil {
						obs.TaskDone()
					}
				}
			}()
		}
		for i := 0; i < n; i++ {
			if obs != nil {
				obs.TaskQueued()
			}
			idx <- i
		}
		close(idx)
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return results, err
		}
	}
	return results, nil
}
