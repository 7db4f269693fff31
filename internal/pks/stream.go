package pks

import (
	"fmt"

	"pka/internal/cluster"
	"pka/internal/gpu"
	"pka/internal/obs"
	"pka/internal/profiler"
	"pka/internal/stats"
	"pka/internal/trace"
)

// StreamOptions configures a streaming selection.
type StreamOptions struct {
	// Select is the batch selection configuration, applied verbatim by the
	// reconciliation pass at Finalize — which is why streaming output is
	// byte-identical to Select with the same options.
	Select Options
	// Window bounds how far ahead of the oldest unprocessed launch an
	// event may arrive (events are reordered within it, rejected beyond
	// it). Zero applies 1024.
	Window int
	// MinDetailed is how many detailed records accumulate before the
	// advisory clustering (and with it speculation) starts. Zero applies 32.
	MinDetailed int
	// ResweepDegradePct re-sweeps K when the running projection-error
	// estimate exceeds the last sweep's error by this many absolute
	// percentage points. Zero applies 2.
	ResweepDegradePct float64
	// ResweepEvery, when positive, forces a re-sweep after that many
	// detailed records regardless of the estimate — a staleness floor for
	// workloads whose drift the estimate misses, and the deterministic way
	// to exercise speculative misprediction in tests. Zero disables it.
	ResweepEvery int
	// Speculate, when non-nil, is called once per newly elected advisory
	// representative, while profiling is still running. Implementations
	// warm caches only — a demoted rep costs wasted simulation work, never
	// correctness.
	Speculate func(trace.KernelDesc)
	// Metrics, when non-nil, receives pka_stream_* counters.
	Metrics *obs.StreamMetrics
}

func (so StreamOptions) filled() StreamOptions {
	if so.Window <= 0 {
		so.Window = 1024
	}
	if so.MinDetailed <= 0 {
		so.MinDetailed = 32
	}
	if so.ResweepDegradePct <= 0 {
		so.ResweepDegradePct = 2
	}
	return so
}

// Stream is the incremental counterpart of Select: kernels are pushed one
// launch at a time, an online clustering tracks group structure as they
// arrive, and Finalize replays the exact batch arithmetic over the
// buffered records to produce a Selection byte-identical to Select.
//
// The streaming machinery splits into two strictly separated halves:
//
//   - The *exact* half: per-launch profiling (detailed until the budget
//     exhausts, light after — the same split, costs, and accumulation
//     order as the batch loop) and the Finalize reconciliation, which
//     calls the very functions Select calls. Nothing else touches the
//     returned Selection.
//   - The *advisory* half: a PCA projection fit on the first MinDetailed
//     records, an appendable Dataset of projections, an OnlineKMeans that
//     assigns and drifts per event, and a running projection-error
//     estimate that triggers full (deterministic) re-sweeps on
//     degradation. Its only output is Speculate callbacks that warm the
//     Exec ladder for likely representatives.
//
// Events may arrive out of order within Window; Push reorders them and
// processes the contiguous prefix, so all profiling arithmetic happens in
// launch order regardless of arrival order. Not safe for concurrent use.
type Stream struct {
	dev     gpu.Device
	o       Options // filled batch options
	so      StreamOptions
	subject string
	n       int

	// Launch-order reordering.
	next    int
	pending map[int]trace.KernelDesc

	// Exact half: buffered profiling state, mirroring the batch loop.
	budget      float64
	budgetDone  bool
	detailed    []profiler.DetailedRecord
	sharedMem   []int
	kernels     []trace.KernelDesc // detailed-prefix descs, for speculation
	lightRecs   []profiler.LightRecord
	lightCosts  []float64
	profSeconds float64

	// Advisory half. space is the warm-up clustering: its projection maps
	// later records into cluster space and its dataset grows with them.
	space      *Clustering
	online     *cluster.OnlineKMeans
	repCycles  []int64 // advisory cluster -> its rep's detailed cycles
	projected  int64   // running Σ repCycles[assigned]
	actual     int64   // running Σ actual cycles over advisory-seen events
	sweepErr   float64 // projection error at the last advisory sweep
	sinceSweep int     // detailed records observed since the last sweep
	resweeps   int
	speculated map[int]bool // kernel IDs already handed to Speculate

	failed error
}

// NewStream starts a streaming selection for a workload named suite/name
// with n total kernel launches on dev.
func NewStream(dev gpu.Device, suite, name string, n int, so StreamOptions) (*Stream, error) {
	if n < 1 {
		return nil, fmt.Errorf("pks: stream needs at least one kernel, got %d", n)
	}
	o := so.Select.filled()
	subject := suite + "/" + name
	return &Stream{
		dev:        dev,
		o:          o,
		so:         so.filled(),
		subject:    subject,
		n:          n,
		pending:    map[int]trace.KernelDesc{},
		budget:     o.DetailedBudgetSeconds,
		detailed:   make([]profiler.DetailedRecord, 0, minInt(n, 4096)),
		sharedMem:  make([]int, 0, minInt(n, 4096)),
		speculated: map[int]bool{},
	}, nil
}

// Resweeps reports how many advisory K re-sweeps ran so far.
func (s *Stream) Resweeps() int { return s.resweeps }

// DetailedSoFar reports how many launches have been detailed-profiled.
func (s *Stream) DetailedSoFar() int { return len(s.detailed) }

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
	if k.ID >= s.next+s.so.Window {
		return fmt.Errorf("pks: stream event launch %d beyond reorder window (oldest unprocessed %d, window %d)",
			k.ID, s.next, s.so.Window)
	}
	if m := s.so.Metrics; m != nil {
		m.Events.Inc()
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
		s.kernels = append(s.kernels, k)
		s.profSeconds += cost
		s.budget -= cost
		if s.budget <= 0 || (s.o.MaxDetailed > 0 && len(s.detailed) >= s.o.MaxDetailed) {
			s.budgetDone = true
		}
		s.observe(&s.detailed[len(s.detailed)-1])
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

// observe runs the advisory half on one freshly detailed record: start the
// clustering once warm, track the running error estimate, and re-sweep
// when it degrades. Advisory failures poison nothing — speculation simply
// stops and Finalize still reconciles exactly.
func (s *Stream) observe(rec *profiler.DetailedRecord) {
	if s.space == nil {
		if len(s.detailed) >= s.so.MinDetailed {
			s.startAdvisory()
		}
		return
	}
	p, err := s.space.Project(rec.Features)
	if err != nil {
		return
	}
	if s.space.Data.Append(p) != nil {
		return
	}
	c := s.online.Observe(p)
	s.projected += s.repCycles[c]
	s.actual += rec.Cycles
	s.sinceSweep++
	est := stats.AbsPctErr(float64(s.projected), float64(s.actual))
	if est > s.sweepErr+s.so.ResweepDegradePct ||
		(s.so.ResweepEvery > 0 && s.sinceSweep >= s.so.ResweepEvery) {
		s.resweep()
	}
}

// advisoryScore scores one clustering the way the batch sweep does —
// projected vs actual cycles over every record the dataset holds.
func (s *Stream) advisoryScore(_ int, clusters []Cluster) (float64, bool) {
	projected, total := ProjectedCycles(clusters, s.detailed)
	e := stats.AbsPctErr(float64(projected), float64(total))
	return e, e <= s.o.TargetErrorPct
}

// startAdvisory runs the clustering core over the warm-up prefix — all of
// it, unsampled, so dataset positions stay record indices — and keeps the
// fitted space and dataset for the records still to come.
func (s *Stream) startAdvisory() {
	p := s.o.clusterParams()
	p.SampleMax = len(s.detailed)
	c, err := ClusterRecords(s.detailed, p, nil, s.advisoryScore)
	if err != nil {
		return
	}
	if s.adopt(c.Best, c.Clusters) {
		s.space = c
	}
}

// resweep reruns the deterministic K sweep over everything streamed so far.
func (s *Stream) resweep() {
	best, clusters, _, err := sweepClusters(s.space.Data, nil, nil, s.o.clusterParams(), nil, s.advisoryScore)
	if err == nil {
		s.adopt(best, clusters)
	}
}

// adopt installs a fresh sweep: reseed the online learner, rebase the
// running estimate on the new assignment, and speculate any representative
// not yet warmed.
func (s *Stream) adopt(best *cluster.KMeansResult, clusters []Cluster) bool {
	online, err := cluster.NewOnlineKMeans(best)
	if err != nil {
		return false
	}
	s.online = online
	s.resweeps++
	s.sinceSweep = 0
	if m := s.so.Metrics; m != nil {
		m.Resweeps.Inc()
	}
	s.projected, s.actual = ProjectedCycles(clusters, s.detailed)
	s.sweepErr = stats.AbsPctErr(float64(s.projected), float64(s.actual))
	s.repCycles = make([]int64, best.K)
	for _, cl := range clusters {
		s.repCycles[cl.ID] = s.detailed[cl.Rep].Cycles
		id := s.detailed[cl.Rep].KernelID
		if !s.speculated[id] {
			s.speculated[id] = true
			if s.so.Speculate != nil {
				s.so.Speculate(s.kernels[cl.Rep])
			}
		}
	}
	return true
}

// Finalize reconciles: it checks the stream is complete, then runs the
// exact batch selection tail — the same sweep, classifier mapping, and
// accounting Select runs — over the buffered records. The returned
// Selection is byte-identical to Select on the same workload and options,
// whatever the advisory half did along the way.
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
