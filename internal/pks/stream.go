package pks

import (
	"fmt"

	"pka/internal/gpu"
	"pka/internal/obs"
	"pka/internal/profiler"
	"pka/internal/trace"
)

// streamWindow bounds how far ahead of the oldest unprocessed launch an event
// may arrive: events are reordered within it and rejected beyond it.
const streamWindow = 1024

// StreamOptions configures a streaming selection.
type StreamOptions struct {
	// Select is the batch selection configuration, applied verbatim by
	// Finalize — which is why streaming output is byte-identical to Select
	// with the same options.
	Select Options
	// Metrics, when non-nil, counts the events pushed.
	Metrics *obs.StreamMetrics
}

// Stream is the incremental counterpart of Select: kernels are pushed one
// launch at a time and profiled as they arrive — detailed until the budget
// exhausts, light after, with the batch loop's split, costs and accumulation
// order — and Finalize runs the batch selection tail over the buffered
// records, producing a Selection byte-identical to Select.
//
// Events may arrive out of order within the reorder window; Push reorders
// them and processes the contiguous prefix, so all profiling arithmetic
// happens in launch order regardless of arrival order. Not safe for
// concurrent use.
type Stream struct {
	dev     gpu.Device
	o       Options // filled batch options
	metrics *obs.StreamMetrics
	subject string
	n       int

	// Launch-order reordering.
	next    int
	pending map[int]trace.KernelDesc

	// Buffered profiling state, mirroring the batch loop.
	budget      float64
	budgetDone  bool
	detailed    []profiler.DetailedRecord
	sharedMem   []int
	lightRecs   []profiler.LightRecord
	lightCosts  []float64
	profSeconds float64

	failed error
}

// NewStream starts a streaming selection for a workload named suite/name
// with n total kernel launches on dev.
func NewStream(dev gpu.Device, suite, name string, n int, so StreamOptions) (*Stream, error) {
	if n < 1 {
		return nil, fmt.Errorf("pks: stream needs at least one kernel, got %d", n)
	}
	o := so.Select.filled()
	return &Stream{
		dev:       dev,
		o:         o,
		metrics:   so.Metrics,
		subject:   suite + "/" + name,
		n:         n,
		pending:   map[int]trace.KernelDesc{},
		budget:    o.DetailedBudgetSeconds,
		detailed:  make([]profiler.DetailedRecord, 0, minInt(n, 4096)),
		sharedMem: make([]int, 0, minInt(n, 4096)),
	}, nil
}

// Push feeds one kernel launch event. k.ID is the launch index; events may
// arrive in any order within the reorder window. After any error the
// stream is poisoned and every later call returns the same error.
func (s *Stream) Push(k trace.KernelDesc) error {
	if s.failed != nil {
		return s.failed
	}
	if err := s.push(k); err != nil {
		s.failed = err
		return err
	}
	return nil
}

func (s *Stream) push(k trace.KernelDesc) error {
	if k.ID < s.next || k.ID >= s.n {
		return fmt.Errorf("pks: stream event launch %d outside [%d,%d)", k.ID, s.next, s.n)
	}
	if _, dup := s.pending[k.ID]; dup {
		return fmt.Errorf("pks: duplicate stream event for launch %d", k.ID)
	}
	if k.ID >= s.next+streamWindow {
		return fmt.Errorf("pks: stream event launch %d beyond reorder window (oldest unprocessed %d, window %d)",
			k.ID, s.next, streamWindow)
	}
	if s.metrics != nil {
		s.metrics.Events.Inc()
	}
	s.pending[k.ID] = k
	for {
		kk, ok := s.pending[s.next]
		if !ok {
			return nil
		}
		delete(s.pending, s.next)
		s.next++
		if err := s.process(kk); err != nil {
			return err
		}
	}
}

// process consumes one launch in chronological order — the only place
// profiling runs, so the cost arithmetic is the batch loop's verbatim.
func (s *Stream) process(k trace.KernelDesc) error {
	if !s.budgetDone {
		rec, cost, err := profiler.Detailed(s.dev, &k)
		if err != nil {
			return fmt.Errorf("pks: detailed profiling: %w", err)
		}
		s.detailed = append(s.detailed, rec)
		s.sharedMem = append(s.sharedMem, k.SharedMemPerBlock)
		s.profSeconds += cost
		s.budget -= cost
		if s.budget <= 0 || (s.o.MaxDetailed > 0 && len(s.detailed) >= s.o.MaxDetailed) {
			s.budgetDone = true
		}
		return nil
	}
	rec, cost, err := profiler.Light(s.dev, &k)
	if err != nil {
		return fmt.Errorf("pks: light profiling kernel %d: %w", k.ID, err)
	}
	s.lightRecs = append(s.lightRecs, rec)
	s.lightCosts = append(s.lightCosts, cost)
	return nil
}

// Finalize checks the stream is complete, then runs the exact batch
// selection tail — the same sweep, classifier mapping, and accounting Select
// runs — over the buffered records. The returned Selection is
// byte-identical to Select on the same workload and options.
func (s *Stream) Finalize() (*Selection, error) {
	if s.failed != nil {
		return nil, s.failed
	}
	if s.next < s.n {
		return nil, fmt.Errorf("pks: stream ended at launch %d of %d (%d buffered out of order)",
			s.next, s.n, len(s.pending))
	}
	sel := &Selection{
		Workload:         s.subject,
		Device:           s.dev.Name,
		TotalKernels:     s.n,
		ProfilingSeconds: s.profSeconds,
	}
	return finishSelection(sel, s.detailed, s.sharedMem, s.o, func(i int) (profiler.LightRecord, float64, error) {
		j := i - len(s.detailed)
		return s.lightRecs[j], s.lightCosts[j], nil
	})
}
