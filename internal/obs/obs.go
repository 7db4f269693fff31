// Package obs is the PKA stack's zero-dependency observability layer:
// a metrics registry (counters, gauges, fixed-bucket histograms with
// Prometheus text exposition and JSON snapshot), span tracing exported as
// Chrome trace_event JSON, and a structured decision-audit stream for the
// PKP/PKS online policies.
//
// The layer is strictly observe-only: nothing in it feeds back into the
// pipeline, so enabling every output must leave study results
// byte-identical (the golden determinism tests pin this). It is also
// hot-loop-free by construction — the simulator aggregates telemetry once
// per kernel, never per cycle, and every instrument is nil-safe so
// disabled telemetry costs a nil check at kernel granularity.
package obs

import (
	"io"
	"sync"
	"time"
)

// Observer bundles the three telemetry facets. Any field may be nil to
// disable that facet; a nil *Observer disables everything. All helper
// accessors are nil-safe.
type Observer struct {
	Metrics *Registry
	Tracer  *Tracer
	Audit   *Audit

	sim   *SimMetrics
	pkp   *PKPMetrics
	pks   *PKSMetrics
	pool  *PoolMetrics
	serve *ServeMetrics
	exec  *ExecMetrics
	shard *ShardMetrics
	dedup *DedupMetrics

	cacheMu   sync.Mutex
	cacheSrcs []func() map[string]CacheCounts
}

// NewObserver returns an Observer with all three facets enabled on the
// real clock.
func NewObserver() *Observer { return NewObserverAt(time.Now) }

// NewObserverAt is NewObserver with an injectable clock for the tracer.
func NewObserverAt(now func() time.Time) *Observer {
	o := &Observer{Metrics: NewRegistry(), Tracer: NewTracerAt(now), Audit: NewAudit()}
	// Register every metric family eagerly so expositions always contain
	// them, populated or not.
	o.SimMetrics()
	o.PKPMetrics()
	o.PKSMetrics()
	o.PoolMetrics()
	o.ServeMetrics()
	o.ExecMetrics()
	o.ShardMetrics()
	o.DedupMetrics()
	// Span loss at the tracer's memory cap lands in the exposition instead
	// of vanishing silently.
	o.Tracer.SetDropCounter(o.Metrics.Counter(
		"pka_trace_dropped_total", "trace events discarded at the tracer memory cap"))
	return o
}

// StartSpan opens a span named name on the given track, or returns an
// inert nil span when tracing is disabled.
func (o *Observer) StartSpan(track, name string, args ...Arg) *Span {
	if o == nil || o.Tracer == nil {
		return nil
	}
	return o.Tracer.Track(track).Start(name, args...)
}

// WriteChromeTrace renders the tracer's spans plus the audit stream
// (as instant events on per-component "audit:" tracks) in Chrome
// trace_event JSON.
func (o *Observer) WriteChromeTrace(w io.Writer) error {
	if o == nil || o.Tracer == nil {
		_, err := io.WriteString(w, `{"traceEvents":[]}`)
		return err
	}
	if o.Audit != nil {
		for _, r := range o.Audit.Records() {
			tk := o.Tracer.Track("audit:" + r.Component)
			args := make([]Arg, 0, len(r.Fields)+3)
			args = append(args, Arg{Key: "subject", Val: r.Subject}, Arg{Key: "seq", Val: r.Seq})
			if r.Cycle != 0 {
				args = append(args, Arg{Key: "cycle", Val: r.Cycle})
			}
			for _, k := range sortedFieldKeys(r.Fields) {
				args = append(args, Arg{Key: k, Val: r.Fields[k]})
			}
			tk.Instant(r.Component+":"+r.Event, args...)
		}
	}
	return o.Tracer.WriteChromeTrace(w)
}

func sortedFieldKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	// Insertion sort: field maps are tiny.
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	return keys
}

// --- Component metric bundles -------------------------------------------
//
// Bundles pre-resolve their instruments once so instrumented code pays a
// field load, not a registry lookup, when it reports.

// SimMetrics is the cycle-level simulator's metric family. Counters are
// updated once per kernel at kernel end — never inside the cycle loop.
type SimMetrics struct {
	Kernels      *Counter
	StoppedEarly *Counter
	Cycles       *Counter
	WarpInstrs   *Counter
	L1Hits       *Counter
	L1Misses     *Counter
	L2Hits       *Counter
	L2Misses     *Counter
	DRAMBytes    *Counter
	KernelCycles *Histogram
}

// SimMetrics lazily builds (and then reuses) the simulator bundle.
func (o *Observer) SimMetrics() *SimMetrics {
	if o == nil || o.Metrics == nil {
		return nil
	}
	if o.sim == nil {
		r := o.Metrics
		o.sim = &SimMetrics{
			Kernels:      r.Counter("pka_sim_kernels_total", "kernel launches simulated"),
			StoppedEarly: r.Counter("pka_sim_kernels_stopped_early_total", "kernels truncated by a controller or cycle cap"),
			Cycles:       r.Counter("pka_sim_cycles_total", "simulated cycles across all kernels"),
			WarpInstrs:   r.Counter("pka_sim_warp_instrs_total", "warp instructions issued across all kernels"),
			L1Hits:       r.Counter("pka_sim_l1_hits_total", "L1 cache hits"),
			L1Misses:     r.Counter("pka_sim_l1_misses_total", "L1 cache misses"),
			L2Hits:       r.Counter("pka_sim_l2_hits_total", "L2 cache hits"),
			L2Misses:     r.Counter("pka_sim_l2_misses_total", "L2 cache misses"),
			DRAMBytes:    r.Counter("pka_sim_dram_bytes_total", "bytes moved through the DRAM channel"),
			KernelCycles: r.Histogram("pka_sim_kernel_cycles", "per-kernel simulated cycle counts",
				[]float64{1e3, 1e4, 1e5, 1e6, 1e7, 1e8}),
		}
	}
	return o.sim
}

// PKPMetrics is Principal Kernel Projection's metric family.
type PKPMetrics struct {
	Stops     *Counter
	WaveHolds *Counter
	StopCycle *Histogram
	DriftCV   *Histogram
}

// PKPMetrics lazily builds (and then reuses) the projector bundle.
func (o *Observer) PKPMetrics() *PKPMetrics {
	if o == nil || o.Metrics == nil {
		return nil
	}
	if o.pkp == nil {
		r := o.Metrics
		o.pkp = &PKPMetrics{
			Stops:     r.Counter("pka_pkp_stops_total", "stability stop decisions fired"),
			WaveHolds: r.Counter("pka_pkp_wave_holds_total", "stable signals held back by the wave constraint"),
			StopCycle: r.Histogram("pka_pkp_stop_cycle", "cycle at which stability fired",
				[]float64{1e3, 1e4, 1e5, 1e6, 1e7}),
			DriftCV: r.Histogram("pka_pkp_stop_drift_cv", "rolling-mean drift CV at the stop decision",
				[]float64{0.01, 0.025, 0.05, 0.1, 0.25}),
		}
	}
	return o.pkp
}

// PKSMetrics is Principal Kernel Selection's metric family.
type PKSMetrics struct {
	Selections *Counter
	SweepSteps *Counter
	ChosenK    *Histogram
	ErrorPct   *Histogram
}

// PKSMetrics lazily builds (and then reuses) the selection bundle.
func (o *Observer) PKSMetrics() *PKSMetrics {
	if o == nil || o.Metrics == nil {
		return nil
	}
	if o.pks == nil {
		r := o.Metrics
		o.pks = &PKSMetrics{
			Selections: r.Counter("pka_pks_selections_total", "selection runs completed"),
			SweepSteps: r.Counter("pka_pks_sweep_steps_total", "K values tried across all sweeps"),
			ChosenK: r.Histogram("pka_pks_chosen_k", "K chosen per selection",
				[]float64{1, 2, 4, 8, 16, 20}),
			ErrorPct: r.Histogram("pka_pks_selection_error_pct", "selection error at the chosen K",
				[]float64{1, 2, 5, 10, 25}),
		}
	}
	return o.pks
}

// PoolMetrics reports worker-pool occupancy. It structurally implements
// internal/parallel's Observer interface; its methods are nil-safe so a
// typed-nil can be installed harmlessly.
type PoolMetrics struct {
	Tasks   *Counter
	Queued  *Gauge
	Active  *Gauge
	MaxSeen *Gauge
}

// PoolMetrics lazily builds (and then reuses) the pool bundle.
func (o *Observer) PoolMetrics() *PoolMetrics {
	if o == nil || o.Metrics == nil {
		return nil
	}
	if o.pool == nil {
		r := o.Metrics
		o.pool = &PoolMetrics{
			Tasks:   r.Counter("pka_pool_tasks_total", "tasks completed by worker pools"),
			Queued:  r.Gauge("pka_pool_queue_depth", "tasks submitted but not yet running"),
			Active:  r.Gauge("pka_pool_active_workers", "tasks currently running"),
			MaxSeen: r.Gauge("pka_pool_active_workers_max", "high-water mark of concurrently running tasks"),
		}
	}
	return o.pool
}

// TaskQueued records a task waiting for a worker slot.
func (m *PoolMetrics) TaskQueued() {
	if m == nil {
		return
	}
	m.Queued.Add(1)
}

// TaskStarted records a task acquiring a worker slot.
func (m *PoolMetrics) TaskStarted() {
	if m == nil {
		return
	}
	m.Queued.Add(-1)
	m.Active.Add(1)
	// Racy read-then-write high-water mark: good enough for a debug gauge.
	if a := m.Active.Value(); a > m.MaxSeen.Value() {
		m.MaxSeen.Set(a)
	}
}

// TaskDone records a task finishing.
func (m *PoolMetrics) TaskDone() {
	if m == nil {
		return
	}
	m.Active.Add(-1)
	m.Tasks.Add(1)
}

// ServeMetrics is the study server's metric family: the admission
// funnel (accepted → completed, with invalid/rejected/drain-rejected
// spill paths), point-in-time occupancy, and the two latency
// distributions the SLO is written against — time queued and total time
// in system. All fields are nil-safe instruments.
type ServeMetrics struct {
	Requests     *Counter
	Completed    *Counter
	Errors       *Counter
	Invalid      *Counter
	Rejected     *Counter
	DrainRejects *Counter
	QueueDepth   *Gauge
	InFlight     *Gauge
	QueueWait    *Histogram
	Latency      *Histogram
}

// ServeMetrics lazily builds (and then reuses) the study-server bundle.
func (o *Observer) ServeMetrics() *ServeMetrics {
	if o == nil || o.Metrics == nil {
		return nil
	}
	if o.serve == nil {
		r := o.Metrics
		o.serve = &ServeMetrics{
			Requests:     r.Counter("pka_serve_requests_total", "study requests admitted to the queue"),
			Completed:    r.Counter("pka_serve_completed_total", "study requests that returned a result"),
			Errors:       r.Counter("pka_serve_errors_total", "admitted requests that failed in execution"),
			Invalid:      r.Counter("pka_serve_invalid_total", "requests rejected by the decoder/validator"),
			Rejected:     r.Counter("pka_serve_rejected_total", "requests rejected with 429 by the full queue"),
			DrainRejects: r.Counter("pka_serve_drain_rejects_total", "requests rejected with 503 while draining"),
			QueueDepth:   r.Gauge("pka_serve_queue_depth", "study requests waiting for a runner"),
			InFlight:     r.Gauge("pka_serve_inflight", "study requests currently executing"),
			QueueWait: r.Histogram("pka_serve_queue_wait_seconds", "time from admission to execution start",
				[]float64{0.0005, 0.001, 0.005, 0.025, 0.1, 0.5, 2.5}),
			Latency: r.Histogram("pka_serve_latency_seconds", "time from admission to completion",
				[]float64{0.001, 0.005, 0.025, 0.1, 0.25, 0.5, 1, 2.5, 10}),
		}
	}
	return o.serve
}

// ExecTierNames names the Exec ladder's serving tiers in ladder order;
// index i is the tier with numeric value i in internal/sampling.
var ExecTierNames = [4]string{"mem", "disk", "shard", "sim"}

// ExecMetrics is the Exec ladder's tier-attribution family: for each of
// the four serving tiers (mem singleflight, disk artifact store,
// owner-shard peer, fresh simulation), how many kernel
// tasks it satisfied and the service-latency distribution.
// The registry has no label support, so each tier is its own
// counter/histogram pair; summed across tiers the counters equal the
// study's kernel-launch count.
type ExecMetrics struct {
	Tasks   [len(ExecTierNames)]*Counter
	Latency [len(ExecTierNames)]*Histogram
}

// ExecMetrics lazily builds (and then reuses) the Exec-ladder bundle.
func (o *Observer) ExecMetrics() *ExecMetrics {
	if o == nil || o.Metrics == nil {
		return nil
	}
	if o.exec == nil {
		r := o.Metrics
		m := &ExecMetrics{}
		bounds := []float64{1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1, 10}
		for i, tier := range ExecTierNames {
			m.Tasks[i] = r.Counter("pka_exec_tier_"+tier+"_total",
				"kernel tasks satisfied by the "+tier+" tier")
			m.Latency[i] = r.Histogram("pka_exec_tier_"+tier+"_seconds",
				"service latency of kernel tasks satisfied by the "+tier+" tier", bounds)
		}
		o.exec = m
	}
	return o.exec
}

// Observe records one kernel task served by tier (0..4) in sec seconds.
// Nil-safe; out-of-range tiers are ignored.
func (m *ExecMetrics) Observe(tier int, sec float64) {
	if m == nil || tier < 0 || tier >= len(m.Tasks) {
		return
	}
	m.Tasks[tier].Inc()
	m.Latency[tier].Observe(sec)
}

// ShardMetrics is the sharded fleet cache's metric family: peer-lookup
// traffic against the consistent-hash ring (hits, misses, transport
// errors), replication writes, and — the health signal the fleet operator
// watches — ring rebalances after a peer is evicted for repeated
// failures. All fields are nil-safe instruments.
type ShardMetrics struct {
	Lookups       *Counter
	PeerHits      *Counter
	PeerMisses    *Counter
	PeerErrors    *Counter
	Puts          *Counter
	PutErrors     *Counter
	Rebalances    *Counter
	LookupLatency *Histogram
}

// ShardMetrics lazily builds (and then reuses) the sharded-cache bundle.
func (o *Observer) ShardMetrics() *ShardMetrics {
	if o == nil || o.Metrics == nil {
		return nil
	}
	if o.shard == nil {
		r := o.Metrics
		o.shard = &ShardMetrics{
			Lookups:    r.Counter("pka_shard_lookups_total", "content keys looked up against the shard ring"),
			PeerHits:   r.Counter("pka_shard_peer_hits_total", "lookups served by an owner or replica shard"),
			PeerMisses: r.Counter("pka_shard_peer_misses_total", "lookups no owner shard held"),
			PeerErrors: r.Counter("pka_shard_peer_errors_total", "peer GETs that failed in transport"),
			Puts:       r.Counter("pka_shard_puts_total", "outcome replications written to owner shards"),
			PutErrors:  r.Counter("pka_shard_put_errors_total", "peer PUTs that failed in transport or were refused"),
			Rebalances: r.Counter("pka_shard_rebalance_total", "ring rebalances after evicting an unreachable shard"),
			LookupLatency: r.Histogram("pka_shard_lookup_latency_seconds", "peer-lookup round-trip latency",
				[]float64{0.0005, 0.001, 0.005, 0.025, 0.1, 0.5, 2.5}),
		}
	}
	return o.shard
}

// DedupMetrics is the suite-level dedup pass's metric family: how many
// kernels were pooled across the suite, the K-sweep's work, and the
// resulting representative count — the number whose ratio to the pooled
// per-app representative count is the suite's dedup win.
type DedupMetrics struct {
	Selections    *Counter
	KernelsPooled *Counter
	SweepSteps    *Counter
	Reps          *Counter
	ChosenK       *Histogram
	SuiteErrorPct *Histogram
}

// DedupMetrics lazily builds (and then reuses) the suite-dedup bundle.
func (o *Observer) DedupMetrics() *DedupMetrics {
	if o == nil || o.Metrics == nil {
		return nil
	}
	if o.dedup == nil {
		r := o.Metrics
		o.dedup = &DedupMetrics{
			Selections:    r.Counter("pka_dedup_selections_total", "suite-level dedup selections performed"),
			KernelsPooled: r.Counter("pka_dedup_kernels_pooled_total", "kernels pooled into the shared PCA space"),
			SweepSteps:    r.Counter("pka_dedup_sweep_steps_total", "suite K-sweep clustering steps evaluated"),
			Reps:          r.Counter("pka_dedup_reps_total", "cross-workload representatives elected"),
			ChosenK: r.Histogram("pka_dedup_chosen_k", "K chosen by the suite sweep",
				[]float64{2, 4, 8, 16, 32, 64, 128}),
			SuiteErrorPct: r.Histogram("pka_dedup_suite_error_pct", "suite-level projected-cycle error at selection",
				[]float64{0.5, 1, 2, 5, 10, 20, 50}),
		}
	}
	return o.dedup
}

// --- Cache statistics -----------------------------------------------------

// CacheCounts is one cache family's counters as published through
// RegisterCacheStats. The disk-backed artifact family also reports
// evictions and corrupt-entry recoveries; in-memory singleflight families
// leave those zero.
type CacheCounts struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions,omitempty"`
	Corrupt   uint64 `json:"corrupt,omitempty"`
}

// RegisterCacheStats installs a source of per-family cache counters.
// Sources are polled by SyncCacheStats, which lands every family in
// pka_cache_<family>_* gauges — putting the in-memory singleflight caches
// and the on-disk artifact store side by side in one exposition. Multiple
// sources compose; families with the same name overwrite last-wins.
func (o *Observer) RegisterCacheStats(src func() map[string]CacheCounts) {
	if o == nil || o.Metrics == nil || src == nil {
		return
	}
	o.cacheMu.Lock()
	o.cacheSrcs = append(o.cacheSrcs, src)
	o.cacheMu.Unlock()
}

// SyncCacheStats polls every registered cache-stats source and copies the
// counters into pka_cache_<family>_{hits,misses,evictions,corrupt} gauges.
// Call it just before rendering an exposition; cache counters are pulled,
// not pushed, so hot cache paths never touch the registry.
func (o *Observer) SyncCacheStats() {
	if o == nil || o.Metrics == nil {
		return
	}
	o.cacheMu.Lock()
	srcs := append([]func() map[string]CacheCounts(nil), o.cacheSrcs...)
	o.cacheMu.Unlock()
	r := o.Metrics
	for _, src := range srcs {
		for family, c := range src() {
			r.Gauge("pka_cache_"+family+"_hits", "cache hits in the "+family+" family").Set(float64(c.Hits))
			r.Gauge("pka_cache_"+family+"_misses", "cache misses in the "+family+" family").Set(float64(c.Misses))
			r.Gauge("pka_cache_"+family+"_evictions", "entries evicted from the "+family+" family").Set(float64(c.Evictions))
			r.Gauge("pka_cache_"+family+"_corrupt", "corrupt entries recovered in the "+family+" family").Set(float64(c.Corrupt))
		}
	}
}

// --- Simulator hookup ----------------------------------------------------

// SimObs is what one Simulator reports into: a track for per-kernel spans
// (one Simulator is single-threaded, so its spans never overlap) and the
// shared sim metric family. A nil *SimObs disables both.
type SimObs struct {
	Track   *Track
	Metrics *SimMetrics
}

// SimObs builds a simulator hookup whose spans land on the named track.
func (o *Observer) SimObs(track string) *SimObs {
	if o == nil {
		return nil
	}
	var tk *Track
	if o.Tracer != nil {
		tk = o.Tracer.Track(track)
	}
	return &SimObs{Track: tk, Metrics: o.SimMetrics()}
}

// StartKernel opens the per-kernel span; safe on a nil receiver.
func (s *SimObs) StartKernel(name string) *Span {
	if s == nil {
		return nil
	}
	return s.Track.Start(name)
}
