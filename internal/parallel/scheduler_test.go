package parallel

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestSchedMapOrderAndResults: results come back in input order regardless
// of execution order.
func TestSchedMapOrderAndResults(t *testing.T) {
	s := NewScheduler(4)
	items := make([]int, 64)
	for i := range items {
		items[i] = i
	}
	got, err := SchedMap(s, items, func(v int) int64 { return int64(v) }, func(i, v int) (int, error) {
		return v * 2, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i*2 {
			t.Fatalf("result[%d] = %d, want %d", i, v, i*2)
		}
	}
}

// TestSchedMapNilSchedulerInline: a nil scheduler runs serially in input
// order on the calling goroutine.
func TestSchedMapNilSchedulerInline(t *testing.T) {
	var order []int
	_, err := SchedMap[int, struct{}](nil, []int{0, 1, 2, 3}, nil, func(i, _ int) (struct{}, error) {
		order = append(order, i) // no lock: must be the calling goroutine
		return struct{}{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("inline order %v not input order", order)
		}
	}
}

// TestSchedMapNilCostInputOrder: a nil cost is equal cost, so at any width
// items are taken off the queue in input order (FIFO ties) — when item i
// runs, no earlier item is still queued — and results come back in input
// order.
func TestSchedMapNilCostInputOrder(t *testing.T) {
	for _, width := range []int{1, 4} {
		s := NewScheduler(width)
		items := make([]int, 32)
		for i := range items {
			items[i] = i
		}
		got, err := SchedMap(s, items, nil, func(i, v int) (int, error) {
			s.mu.Lock()
			defer s.mu.Unlock()
			for _, q := range s.queue { // a fresh scheduler numbers tasks by input index
				if q.seq < uint64(i) {
					return 0, fmt.Errorf("item %d started while item %d was still queued", i, q.seq)
				}
			}
			return v * 3, nil
		})
		if err != nil {
			t.Fatalf("width %d: %v", width, err)
		}
		for i, v := range got {
			if v != i*3 {
				t.Fatalf("width %d: result[%d] = %d, want %d", width, i, v, i*3)
			}
		}
	}
}

// TestSchedMapLoneCallerRunsInline: a lone SchedMap at width 1 claims the
// scheduler's one slot and works its batch off on the calling goroutine,
// longest first — no worker is spawned, so the append needs no lock (the race
// detector checks that) — and leaves the scheduler idle.
func TestSchedMapLoneCallerRunsInline(t *testing.T) {
	s := NewScheduler(1)
	costs := []int64{10, 50, 30, 50, 20}
	var order []int
	got, err := SchedMap(s, costs, func(c int64) int64 { return c }, func(i int, c int64) (int64, error) {
		order = append(order, i) // no lock: must be the calling goroutine
		return c, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{1, 3, 2, 4, 0}; fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("ran in order %v, want %v (longest-first, FIFO ties)", order, want)
	}
	if fmt.Sprint(got) != fmt.Sprint(costs) {
		t.Fatalf("results %v not in input order", got)
	}
	if s.running != 0 || s.queue.Len() != 0 { // no lock either: nobody else was started
		t.Fatalf("lone caller left running=%d queue=%d", s.running, s.queue.Len())
	}
}

// TestSchedMapCallersShareWidth: callers that work their own batches off
// still count against the width — with more concurrent callers than slots,
// never more than width tasks run at once.
func TestSchedMapCallersShareWidth(t *testing.T) {
	const width, callers = 2, 6
	s := NewScheduler(width)
	var active, maxSeen atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := SchedMap(s, make([]int, 40), func(int) int64 { return 1 }, func(i, _ int) (struct{}, error) {
				a := active.Add(1)
				for m := maxSeen.Load(); a > m && !maxSeen.CompareAndSwap(m, a); m = maxSeen.Load() {
				}
				runtime.Gosched() // let the other callers in while this task is counted
				active.Add(-1)
				return struct{}{}, nil
			})
			if err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if m := maxSeen.Load(); m > width {
		t.Fatalf("observed %d concurrent tasks, width is %d", m, width)
	}
}

// TestSchedMapCallerLeavesWhenItsBatchIsDone: a caller working the queue stops
// at the end of its own batch. Caller A holds the one slot; B's task — cheap,
// so it sorts behind all of A's, and blocking — is queued while A is mid-batch.
// A must return without running it (it hands its slot to a fresh worker, which
// does), and B returns once its task is let go.
func TestSchedMapCallerLeavesWhenItsBatchIsDone(t *testing.T) {
	s := NewScheduler(1)
	const nA = 4
	gate := make(chan struct{})
	aStarted, bDone := make(chan struct{}), make(chan error, 1)
	go func() {
		<-aStarted
		_, err := SchedMap(s, []int{0}, func(int) int64 { return 0 }, func(int, int) (struct{}, error) {
			<-gate
			return struct{}{}, nil
		})
		bDone <- err
	}()
	aDone := make(chan error, 1)
	go func() {
		_, err := SchedMap(s, make([]int, nA), func(int) int64 { return 1 }, func(i, _ int) (struct{}, error) {
			if i == 0 { // equal costs run FIFO: A's first task
				close(aStarted)
				for deadline := time.Now().Add(10 * time.Second); ; runtime.Gosched() {
					s.mu.Lock()
					depth := s.queue.Len()
					s.mu.Unlock()
					if depth == nA { // A's other tasks and B's
						break
					}
					if time.Now().After(deadline) {
						return struct{}{}, errors.New("B's task never queued")
					}
				}
			}
			return struct{}{}, nil
		})
		aDone <- err
	}()
	select {
	case err := <-aDone:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("caller A is stuck behind caller B's queued task")
	}
	select {
	case <-bDone:
		t.Fatal("B returned before its task was released")
	default:
	}
	close(gate)
	if err := <-bDone; err != nil {
		t.Fatal(err)
	}
}

// TestSchedulerLongestFirst: with one worker, queued tasks run in
// descending cost order (FIFO on ties).
func TestSchedulerLongestFirst(t *testing.T) {
	s := NewScheduler(1)
	var mu sync.Mutex
	var order []int

	// Occupy the single worker so the rest of the submissions queue up
	// behind it, then release it and watch the drain order.
	release := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	s.submit(1<<40, func() { defer wg.Done(); <-release })
	costs := []int64{10, 50, 30, 50, 20}
	for i, c := range costs {
		i, c := i, c
		wg.Add(1)
		s.submit(c, func() {
			defer wg.Done()
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
		})
	}
	close(release)
	wg.Wait()

	want := []int{1, 3, 2, 4, 0} // 50 (seq 1), 50 (seq 3), 30, 20, 10
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("drain order %v, want %v (longest-first, FIFO ties)", order, want)
	}
}

// TestSchedulerConcurrencyBound: at most width tasks run at once, and the
// bound is actually reached when enough work is queued.
func TestSchedulerConcurrencyBound(t *testing.T) {
	const width = 3
	s := NewScheduler(width)
	var active, maxSeen atomic.Int64
	items := make([]int, 100)
	_, err := SchedMap(s, items, func(int) int64 { return 1 }, func(i, _ int) (struct{}, error) {
		a := active.Add(1)
		for {
			m := maxSeen.Load()
			if a <= m || maxSeen.CompareAndSwap(m, a) {
				break
			}
		}
		active.Add(-1)
		return struct{}{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if m := maxSeen.Load(); m > width {
		t.Fatalf("observed %d concurrent tasks, width is %d", m, width)
	}
}

// TestSchedMapErrorSemantics: every item is attempted and the error is the
// lowest-indexed failure; panics are contained.
func TestSchedMapErrorSemantics(t *testing.T) {
	s := NewScheduler(4)
	var attempted atomic.Int64
	boom := errors.New("boom")
	_, err := SchedMap(s, []int{0, 1, 2, 3, 4, 5}, func(int) int64 { return 1 }, func(i, _ int) (int, error) {
		attempted.Add(1)
		switch i {
		case 4:
			return 0, boom
		case 2:
			return 0, fmt.Errorf("first by index")
		case 3:
			panic("contained?")
		}
		return i, nil
	})
	if attempted.Load() != 6 {
		t.Fatalf("attempted %d items, want all 6", attempted.Load())
	}
	if err == nil || err.Error() != "first by index" {
		t.Fatalf("error = %v, want the lowest-indexed failure", err)
	}

	// A panic at the lowest failing index surfaces as *PanicError.
	_, err = SchedMap(s, []int{0, 1}, func(int) int64 { return 1 }, func(i, _ int) (int, error) {
		if i == 0 {
			panic("zero")
		}
		return 0, nil
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("error = %v, want *PanicError", err)
	}
}

// TestSchedulerIdleHoldsNoWorkers: running drops to zero after the queue
// drains, so an idle scheduler leaks no goroutines.
func TestSchedulerIdleHoldsNoWorkers(t *testing.T) {
	s := NewScheduler(8)
	items := make([]int, 32)
	if _, err := SchedMap(s, items, func(int) int64 { return 1 }, func(i, _ int) (struct{}, error) {
		return struct{}{}, nil
	}); err != nil {
		t.Fatal(err)
	}
	// Workers decrement running just after the final task's result is
	// published, so give them a moment to park.
	deadline := time.Now().Add(2 * time.Second)
	for {
		s.mu.Lock()
		running, depth := s.running, s.queue.Len()
		s.mu.Unlock()
		if running == 0 && depth == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("idle scheduler still has running=%d queue=%d", running, depth)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSchedMapSharedScheduler: two concurrent SchedMaps on one scheduler
// both complete with correct per-call results.
func TestSchedMapSharedScheduler(t *testing.T) {
	s := NewScheduler(4)
	var wg sync.WaitGroup
	for call := 0; call < 8; call++ {
		call := call
		wg.Add(1)
		go func() {
			defer wg.Done()
			items := make([]int, 50)
			got, err := SchedMap(s, items, func(int) int64 { return int64(call) }, func(i, _ int) (int, error) {
				return call*1000 + i, nil
			})
			if err != nil {
				t.Error(err)
				return
			}
			for i, v := range got {
				if v != call*1000+i {
					t.Errorf("call %d result[%d] = %d", call, i, v)
					return
				}
			}
		}()
	}
	wg.Wait()
}
