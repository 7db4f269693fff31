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

// Map applies fn to every item with at most Workers(workers) concurrent
// calls and returns the results in input order. Every item is attempted
// even when some fail, and the returned error is the lowest-indexed
// failure — so the (results, error) pair is deterministic regardless of
// goroutine scheduling. A panic inside fn is contained and surfaces as a
// *PanicError for that index. Map is SchedMap on a scheduler of its own at
// equal cost, so items start in input order and the caller works the queue
// beside at most Workers(workers)-1 spawned goroutines.
func Map[T, R any](workers int, items []T, fn func(i int, item T) (R, error)) ([]R, error) {
	return SchedMap(NewScheduler(workers), items, nil, fn)
}
