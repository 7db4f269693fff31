package serve

import (
	"sort"
	"sync"
	"time"
)

// sample is one completed request's timing.
type sample struct {
	queue time.Duration // admission to execution start
	total time.Duration // admission to completion
}

// Recorder accumulates per-request latency samples in a fixed ring and
// summarizes them as nearest-rank percentiles. It is goroutine-safe; the
// clock lives with the caller, so a test can drive it with a fake clock
// and get bit-stable reports. A nil Recorder observes nothing and
// reports zeros.
type Recorder struct {
	mu   sync.Mutex
	ring []sample
	next int
}

// NewRecorder builds a recorder over a rolling window of n > 0 samples.
func NewRecorder(n int) *Recorder {
	return &Recorder{ring: make([]sample, 0, n)}
}

// Observe records one completed request.
func (r *Recorder) Observe(queue, total time.Duration) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := sample{queue: queue, total: total}
	if len(r.ring) < cap(r.ring) {
		r.ring = append(r.ring, s)
	} else {
		r.ring[r.next] = s
	}
	r.next = (r.next + 1) % cap(r.ring)
}

// Report is a point-in-time latency summary over the recorder's window.
type Report struct {
	// Requests counts every request the server finished (its
	// pka_serve_latency_seconds count); Window is how many of the most
	// recent ones the percentiles cover.
	Requests int
	Window   int

	QueueP50 time.Duration
	QueueP95 time.Duration
	QueueP99 time.Duration

	P50  time.Duration
	P95  time.Duration
	P99  time.Duration
	Mean time.Duration
	Max  time.Duration
}

// Report summarizes the current window.
func (r *Recorder) Report() *Report {
	if r == nil {
		return &Report{}
	}
	r.mu.Lock()
	window := make([]sample, len(r.ring))
	copy(window, r.ring)
	rep := &Report{Window: len(window)}
	r.mu.Unlock()

	if len(window) == 0 {
		return rep
	}
	totals := make([]time.Duration, len(window))
	queues := make([]time.Duration, len(window))
	var sum time.Duration
	for i, s := range window {
		totals[i], queues[i] = s.total, s.queue
		sum += s.total
		if s.total > rep.Max {
			rep.Max = s.total
		}
	}
	sortDurations(totals)
	sortDurations(queues)
	rep.P50, rep.P95, rep.P99 = percentile(totals, 50), percentile(totals, 95), percentile(totals, 99)
	rep.QueueP50, rep.QueueP95, rep.QueueP99 = percentile(queues, 50), percentile(queues, 95), percentile(queues, 99)
	rep.Mean = sum / time.Duration(len(window))
	return rep
}

// percentile is the nearest-rank percentile of an ascending-sorted slice.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(p/100*float64(len(sorted)) + 0.9999999999)
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

func sortDurations(ds []time.Duration) {
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
}
