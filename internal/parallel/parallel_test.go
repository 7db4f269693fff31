package parallel

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestMapOrderPreserved checks that results come back in input order no
// matter how workers interleave.
func TestMapOrderPreserved(t *testing.T) {
	items := make([]int, 500)
	for i := range items {
		items[i] = i
	}
	out, err := Map(8, items, func(i, v int) (int, error) {
		if v%7 == 0 {
			time.Sleep(time.Millisecond) // perturb completion order
		}
		return v * 2, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(items) {
		t.Fatalf("got %d results, want %d", len(out), len(items))
	}
	for i, v := range out {
		if v != i*2 {
			t.Fatalf("out[%d] = %d, want %d", i, v, i*2)
		}
	}
}

// TestMapBoundsWorkers checks the peak number of in-flight fn calls never
// exceeds the requested width.
func TestMapBoundsWorkers(t *testing.T) {
	const limit = 3
	var inFlight, peak atomic.Int64
	items := make([]int, 64)
	_, err := Map(limit, items, func(i, _ int) (struct{}, error) {
		n := inFlight.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		inFlight.Add(-1)
		return struct{}{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > limit {
		t.Errorf("peak in-flight %d exceeds limit %d", p, limit)
	}
}

// TestMapFirstError checks the returned error is the lowest-indexed
// failure, independent of scheduling, and that every item is attempted.
func TestMapFirstError(t *testing.T) {
	var attempts atomic.Int64
	items := make([]int, 100)
	for i := range items {
		items[i] = i
	}
	for trial := 0; trial < 10; trial++ {
		attempts.Store(0)
		_, err := Map(8, items, func(i, v int) (int, error) {
			attempts.Add(1)
			if v == 13 || v == 61 {
				return 0, fmt.Errorf("item %d failed", v)
			}
			return v, nil
		})
		if err == nil || err.Error() != "item 13 failed" {
			t.Fatalf("trial %d: err = %v, want first-indexed failure (item 13)", trial, err)
		}
		if n := attempts.Load(); n != int64(len(items)) {
			t.Fatalf("trial %d: %d attempts, want %d (all items attempted)", trial, n, len(items))
		}
	}
}

// TestMapPanicContained checks a panicking item surfaces as *PanicError
// instead of crashing the process, and does not poison other items.
func TestMapPanicContained(t *testing.T) {
	items := []int{0, 1, 2, 3}
	out, err := Map(2, items, func(i, v int) (int, error) {
		if v == 1 {
			panic("boom")
		}
		return v, nil
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
	if pe.Value != "boom" {
		t.Errorf("panic value = %v, want boom", pe.Value)
	}
	if len(pe.Stack) == 0 {
		t.Error("panic stack not captured")
	}
	if out[2] != 2 || out[3] != 3 {
		t.Errorf("healthy items lost: %v", out)
	}
}

// TestMapSerialMatchesParallel checks serial (workers=1) and parallel runs
// produce identical outputs — the determinism contract the experiment
// generators rely on.
func TestMapSerialMatchesParallel(t *testing.T) {
	items := make([]int, 200)
	for i := range items {
		items[i] = i * 3
	}
	fn := func(i, v int) (string, error) { return fmt.Sprintf("%d:%d", i, v), nil }
	serial, err := Map(1, items, fn)
	if err != nil {
		t.Fatal(err)
	}
	par, err := Map(16, items, fn)
	if err != nil {
		t.Fatal(err)
	}
	for i := range serial {
		if serial[i] != par[i] {
			t.Fatalf("divergence at %d: %q vs %q", i, serial[i], par[i])
		}
	}
}

func TestMapEmptyAndWorkersDefaults(t *testing.T) {
	out, err := Map(4, nil, func(i, v int) (int, error) { return v, nil })
	if err != nil || out != nil {
		t.Errorf("empty map: out=%v err=%v", out, err)
	}
	if Workers(0) < 1 || Workers(-3) < 1 {
		t.Error("Workers must default to at least one worker")
	}
	if Workers(7) != 7 {
		t.Error("explicit worker counts must pass through")
	}
}

// TestCacheStampede is the singleflight stress test: 64 goroutines hit the
// same cold key and exactly one compute must run.
func TestCacheStampede(t *testing.T) {
	var c Cache[string, int]
	var computes atomic.Int64
	release := make(chan struct{})
	var wg sync.WaitGroup
	results := make([]int, 64)
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-release
			v, err := c.Do("key", func() (int, error) {
				computes.Add(1)
				time.Sleep(2 * time.Millisecond) // widen the stampede window
				return 42, nil
			})
			if err != nil {
				t.Error(err)
			}
			results[i] = v
		}(i)
	}
	close(release)
	wg.Wait()
	if n := computes.Load(); n != 1 {
		t.Errorf("%d computes for one key, want exactly 1", n)
	}
	for i, v := range results {
		if v != 42 {
			t.Errorf("caller %d got %d, want 42", i, v)
		}
	}
	if _, misses := c.Stats(); misses != 1 {
		t.Errorf("misses = %d, want 1", misses)
	}
}

// TestCacheDistinctKeys checks keys do not serialize behind each other and
// each computes once.
func TestCacheDistinctKeys(t *testing.T) {
	var c Cache[int, int]
	var computes atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		for j := 0; j < 8; j++ {
			wg.Add(1)
			go func(k int) {
				defer wg.Done()
				v, err := c.Do(k, func() (int, error) {
					computes.Add(1)
					return k * k, nil
				})
				if err != nil || v != k*k {
					t.Errorf("key %d: v=%d err=%v", k, v, err)
				}
			}(i)
		}
	}
	wg.Wait()
	if n := computes.Load(); n != 16 {
		t.Errorf("%d computes, want 16 (one per key)", n)
	}
	if c.Len() != 16 {
		t.Errorf("Len = %d, want 16", c.Len())
	}
}

// TestCacheErrorNotMemoized checks failed computes are retried while their
// concurrent waiters still share the failure.
func TestCacheErrorNotMemoized(t *testing.T) {
	var c Cache[string, int]
	fail := errors.New("transient")
	if _, err := c.Do("k", func() (int, error) { return 0, fail }); !errors.Is(err, fail) {
		t.Fatalf("first call err = %v", err)
	}
	v, err := c.Do("k", func() (int, error) { return 7, nil })
	if err != nil || v != 7 {
		t.Fatalf("retry after failure: v=%d err=%v", v, err)
	}
	// The successful value is now memoized.
	v, err = c.Do("k", func() (int, error) { return 0, errors.New("must not run") })
	if err != nil || v != 7 {
		t.Fatalf("memoized value lost: v=%d err=%v", v, err)
	}
}

// TestCachePanicContained checks a panicking compute releases waiters with
// a *PanicError instead of deadlocking them.
func TestCachePanicContained(t *testing.T) {
	var c Cache[string, int]
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = c.Do("k", func() (int, error) {
				time.Sleep(time.Millisecond)
				panic("cache boom")
			})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err == nil {
			// A goroutine may have started a fresh flight after the panic
			// cleared the entry and panicked again; every outcome must be
			// an error here since compute always panics.
			t.Errorf("caller %d: nil error after panicking compute", i)
		}
	}
	var pe *PanicError
	if !errors.As(errs[0], &pe) {
		t.Errorf("err = %v, want *PanicError", errs[0])
	}
}

// TestCacheGet checks Get only reports completed successful entries.
func TestCacheGet(t *testing.T) {
	var c Cache[string, int]
	if _, ok := c.Get("missing"); ok {
		t.Error("Get reported a missing key")
	}
	if _, err := c.Do("k", func() (int, error) { return 5, nil }); err != nil {
		t.Fatal(err)
	}
	if v, ok := c.Get("k"); !ok || v != 5 {
		t.Errorf("Get = (%d,%v), want (5,true)", v, ok)
	}
}

// TestCachePeek checks Peek tells an absent key, a compute in flight and a
// completed entry apart, and counts neither a hit nor a miss.
func TestCachePeek(t *testing.T) {
	var c Cache[string, int]
	if _, ok, pending := c.Peek("k"); ok || pending {
		t.Errorf("absent key: ok %v, pending %v", ok, pending)
	}
	started, release := make(chan struct{}), make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		c.Do("k", func() (int, error) {
			close(started)
			<-release
			return 5, nil
		})
	}()
	<-started
	if _, ok, pending := c.Peek("k"); ok || !pending {
		t.Errorf("in flight: ok %v, pending %v", ok, pending)
	}
	close(release)
	<-done
	if v, ok, pending := c.Peek("k"); !ok || pending || v != 5 {
		t.Errorf("completed: (%d, %v, %v), want (5, true, false)", v, ok, pending)
	}
	if hits, misses := c.Stats(); hits != 0 || misses != 1 {
		t.Errorf("stats (%d, %d), want (0, 1): Peek counted", hits, misses)
	}
}

// countingObserver tallies the pool events of n tasks and the lowest queue
// depth (queued minus started) it saw; settled closes at the n-th TaskDone.
type countingObserver struct {
	n       int
	settled chan struct{}

	mu                    sync.Mutex
	queued, started, done int
	minDepth              int
}

func (o *countingObserver) TaskQueued() {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.queued++
}

func (o *countingObserver) TaskStarted() {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.started++
	o.minDepth = min(o.minDepth, o.queued-o.started)
}

func (o *countingObserver) TaskDone() {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.done++; o.done == o.n {
		close(o.settled)
	}
}

// TestObserverQueueDepthNeverNegative: every path that runs tasks reports each
// as queued before it starts it, inline paths included, so the pool's
// queue-depth gauge never drops below zero and both gauges settle at zero.
func TestObserverQueueDepthNeverNegative(t *testing.T) {
	const n = 6
	items := make([]int, n)
	square := func(i, _ int) (int, error) { return i * i, nil }
	cost := func(int) int64 { return 1 }
	for name, run := range map[string]func() ([]int, error){
		"Map(1)":            func() ([]int, error) { return Map(1, items, square) },
		"SchedMap(nil)":     func() ([]int, error) { return SchedMap(nil, items, cost, square) },
		"SchedMap(width 1)": func() ([]int, error) { return SchedMap(NewScheduler(1), items, cost, square) },
		"SchedMap(width 4)": func() ([]int, error) { return SchedMap(NewScheduler(4), items, cost, square) },
	} {
		o := &countingObserver{n: n, settled: make(chan struct{})}
		SetObserver(o)
		_, err := run()
		if err == nil {
			select { // a worker reports its last task done just after SchedMap returns
			case <-o.settled:
			case <-time.After(5 * time.Second):
			}
		}
		SetObserver(nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		o.mu.Lock()
		if o.minDepth < 0 || o.queued != n || o.started != n || o.done != n {
			t.Errorf("%s: queued %d, started %d, done %d of %d tasks; lowest queue depth %d",
				name, o.queued, o.started, o.done, n, o.minDepth)
		}
		o.mu.Unlock()
	}
}
