// Package obs is the PKA stack's zero-dependency observability layer:
// a metrics registry (counters, gauges, fixed-bucket histograms with
// Prometheus text exposition), span tracing exported as
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
	"fmt"
	"io"
	"net/http"
	"reflect"
	"strconv"
	"strings"
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

	dropped *Counter

	cacheMu   sync.Mutex
	cacheSrcs []func() map[string]CacheCounts
}

// NewObserver returns an Observer with all three facets enabled on the
// real clock.
func NewObserver() *Observer { return NewObserverAt(time.Now) }

// NewObserverAt is NewObserver with an injectable clock for the tracer.
// Every metric family is registered up front, so expositions always
// contain them, populated or not.
func NewObserverAt(now func() time.Time) *Observer {
	r := NewRegistry()
	o := &Observer{Metrics: r, Tracer: NewTracerAt(now), Audit: NewAudit(),
		sim: bind[SimMetrics](r), pkp: bind[PKPMetrics](r), pks: bind[PKSMetrics](r),
		pool: bind[PoolMetrics](r), serve: bind[ServeMetrics](r), exec: newExecMetrics(r),
		shard: bind[ShardMetrics](r), dedup: bind[DedupMetrics](r),
		// Span loss at a tracer's memory cap lands in the exposition
		// instead of vanishing silently.
		dropped: r.Counter("pka_trace_dropped_total", "trace events discarded at the tracer memory cap"),
	}
	o.Tracer.SetDropCounter(o.dropped)
	return o
}

// TraceDropped is pka_trace_dropped_total: events this observer's tracer,
// or any other tracer it is installed on, discarded at the memory cap.
func (o *Observer) TraceDropped() *Counter {
	if o == nil {
		return nil
	}
	return o.dropped
}

// ServeHTTP answers a scrape with the registry's Prometheus text
// exposition, cache counters synced first; 404 without a registry.
func (o *Observer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if o == nil || o.Metrics == nil {
		http.NotFound(w, r)
		return
	}
	o.SyncCacheStats()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = o.Metrics.WritePrometheus(w) // the client went away
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
// field load, not a registry lookup, when it reports. Each instrument is
// declared once, by its field's tags: metric (the family name), help, and
// for a histogram buckets (its upper bounds); bind registers them.

// SimMetrics is the cycle-level simulator's metric family. Counters are
// updated once per kernel at kernel end — never inside the cycle loop.
type SimMetrics struct {
	Kernels      *Counter   `metric:"pka_sim_kernels_total" help:"kernel launches simulated"`
	StoppedEarly *Counter   `metric:"pka_sim_kernels_stopped_early_total" help:"kernels truncated by a controller or cycle cap"`
	Cycles       *Counter   `metric:"pka_sim_cycles_total" help:"simulated cycles across all kernels"`
	WarpInstrs   *Counter   `metric:"pka_sim_warp_instrs_total" help:"warp instructions issued across all kernels"`
	L1Hits       *Counter   `metric:"pka_sim_l1_hits_total" help:"L1 cache hits"`
	L1Misses     *Counter   `metric:"pka_sim_l1_misses_total" help:"L1 cache misses"`
	L2Hits       *Counter   `metric:"pka_sim_l2_hits_total" help:"L2 cache hits"`
	L2Misses     *Counter   `metric:"pka_sim_l2_misses_total" help:"L2 cache misses"`
	DRAMBytes    *Counter   `metric:"pka_sim_dram_bytes_total" help:"bytes moved through the DRAM channel"`
	KernelCycles *Histogram `metric:"pka_sim_kernel_cycles" help:"per-kernel simulated cycle counts" buckets:"1e3,1e4,1e5,1e6,1e7,1e8"`
}

// SimMetrics returns the simulator bundle; nil on a nil Observer.
func (o *Observer) SimMetrics() *SimMetrics {
	if o == nil {
		return nil
	}
	return o.sim
}

// PKPMetrics is Principal Kernel Projection's metric family.
type PKPMetrics struct {
	Stops     *Counter   `metric:"pka_pkp_stops_total" help:"stability stop decisions fired"`
	WaveHolds *Counter   `metric:"pka_pkp_wave_holds_total" help:"stable signals held back by the wave constraint"`
	StopCycle *Histogram `metric:"pka_pkp_stop_cycle" help:"cycle at which stability fired" buckets:"1e3,1e4,1e5,1e6,1e7"`
	DriftCV   *Histogram `metric:"pka_pkp_stop_drift_cv" help:"rolling-mean drift CV at the stop decision" buckets:"0.01,0.025,0.05,0.1,0.25"`
}

// PKPMetrics returns the projector bundle; nil on a nil Observer.
func (o *Observer) PKPMetrics() *PKPMetrics {
	if o == nil {
		return nil
	}
	return o.pkp
}

// PKSMetrics is Principal Kernel Selection's metric family.
type PKSMetrics struct {
	Selections *Counter   `metric:"pka_pks_selections_total" help:"selection runs completed"`
	SweepSteps *Counter   `metric:"pka_pks_sweep_steps_total" help:"K values tried across all sweeps"`
	ChosenK    *Histogram `metric:"pka_pks_chosen_k" help:"K chosen per selection" buckets:"1,2,4,8,16,20"`
	ErrorPct   *Histogram `metric:"pka_pks_selection_error_pct" help:"selection error at the chosen K" buckets:"1,2,5,10,25"`
}

// PKSMetrics returns the selection bundle; nil on a nil Observer.
func (o *Observer) PKSMetrics() *PKSMetrics {
	if o == nil {
		return nil
	}
	return o.pks
}

// PoolMetrics reports worker-pool occupancy. It structurally implements
// internal/parallel's Observer interface; its methods are nil-safe so a
// typed-nil can be installed harmlessly.
type PoolMetrics struct {
	Tasks   *Counter `metric:"pka_pool_tasks_total" help:"tasks completed by worker pools"`
	Queued  *Gauge   `metric:"pka_pool_queue_depth" help:"tasks submitted but not yet running"`
	Active  *Gauge   `metric:"pka_pool_active_workers" help:"tasks currently running"`
	MaxSeen *Gauge   `metric:"pka_pool_active_workers_max" help:"high-water mark of concurrently running tasks"`
}

// PoolMetrics returns the pool bundle; nil on a nil Observer.
func (o *Observer) PoolMetrics() *PoolMetrics {
	if o == nil {
		return nil
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
	Requests     *Counter   `metric:"pka_serve_requests_total" help:"study requests admitted to the queue"`
	Completed    *Counter   `metric:"pka_serve_completed_total" help:"study requests that returned a result"`
	Errors       *Counter   `metric:"pka_serve_errors_total" help:"admitted requests that failed in execution"`
	Invalid      *Counter   `metric:"pka_serve_invalid_total" help:"requests rejected by the decoder/validator"`
	Rejected     *Counter   `metric:"pka_serve_rejected_total" help:"requests rejected with 429 by the full queue"`
	DrainRejects *Counter   `metric:"pka_serve_drain_rejects_total" help:"requests rejected with 503 while draining"`
	QueueDepth   *Gauge     `metric:"pka_serve_queue_depth" help:"study requests waiting for a runner"`
	InFlight     *Gauge     `metric:"pka_serve_inflight" help:"study requests currently executing"`
	QueueWait    *Histogram `metric:"pka_serve_queue_wait_seconds" help:"time from admission to execution start" buckets:"0.0005,0.001,0.005,0.025,0.1,0.5,2.5"`
	Latency      *Histogram `metric:"pka_serve_latency_seconds" help:"time from admission to completion" buckets:"0.001,0.005,0.025,0.1,0.25,0.5,1,2.5,10"`
}

// ServeMetrics returns the study-server bundle; nil on a nil Observer.
func (o *Observer) ServeMetrics() *ServeMetrics {
	if o == nil {
		return nil
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

// newExecMetrics registers one counter/histogram pair per tier.
func newExecMetrics(r *Registry) *ExecMetrics {
	m := &ExecMetrics{}
	bounds := []float64{1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1, 10}
	for i, tier := range ExecTierNames {
		m.Tasks[i] = r.Counter("pka_exec_tier_"+tier+"_total",
			"kernel tasks satisfied by the "+tier+" tier")
		m.Latency[i] = r.Histogram("pka_exec_tier_"+tier+"_seconds",
			"service latency of kernel tasks satisfied by the "+tier+" tier", bounds)
	}
	return m
}

// ExecMetrics returns the Exec-ladder bundle; nil on a nil Observer.
func (o *Observer) ExecMetrics() *ExecMetrics {
	if o == nil {
		return nil
	}
	return o.exec
}

// Observe records one kernel task served by tier (0..3) in sec seconds.
// Nil-safe; out-of-range tiers are ignored.
func (m *ExecMetrics) Observe(tier int, sec float64) {
	if m == nil || tier < 0 || tier >= len(m.Tasks) {
		return
	}
	m.Tasks[tier].Inc()
	m.Latency[tier].Observe(sec)
}

// ShardMetrics is the sharded fleet cache's metric family: peer-lookup
// traffic against the keys' owner peers (hits, misses, transport errors),
// replication writes, and — the health signal the fleet operator watches —
// rebalances after a peer is evicted for repeated failures. All fields are nil-safe instruments.
type ShardMetrics struct {
	Lookups       *Counter   `metric:"pka_shard_lookups_total" help:"content keys looked up against the shard ring"`
	PeerHits      *Counter   `metric:"pka_shard_peer_hits_total" help:"lookups served by an owner or replica shard"`
	PeerMisses    *Counter   `metric:"pka_shard_peer_misses_total" help:"lookups no owner shard held"`
	PeerErrors    *Counter   `metric:"pka_shard_peer_errors_total" help:"peer GETs that failed in transport"`
	Puts          *Counter   `metric:"pka_shard_puts_total" help:"outcome replications written to owner shards"`
	PutErrors     *Counter   `metric:"pka_shard_put_errors_total" help:"peer PUTs that failed in transport or were refused"`
	Rebalances    *Counter   `metric:"pka_shard_rebalance_total" help:"ring rebalances after evicting an unreachable shard"`
	LookupLatency *Histogram `metric:"pka_shard_lookup_latency_seconds" help:"peer-lookup round-trip latency" buckets:"0.0005,0.001,0.005,0.025,0.1,0.5,2.5"`
}

// ShardMetrics returns the sharded-cache bundle; nil on a nil Observer.
func (o *Observer) ShardMetrics() *ShardMetrics {
	if o == nil {
		return nil
	}
	return o.shard
}

// DedupMetrics is the suite-level dedup pass's metric family: how many
// kernels were pooled across the suite, the K-sweep's work, and the
// resulting representative count — the number whose ratio to the pooled
// per-app representative count is the suite's dedup win.
type DedupMetrics struct {
	Selections    *Counter   `metric:"pka_dedup_selections_total" help:"suite-level dedup selections performed"`
	KernelsPooled *Counter   `metric:"pka_dedup_kernels_pooled_total" help:"kernels pooled into the shared PCA space"`
	SweepSteps    *Counter   `metric:"pka_dedup_sweep_steps_total" help:"suite K-sweep clustering steps evaluated"`
	Reps          *Counter   `metric:"pka_dedup_reps_total" help:"cross-workload representatives elected"`
	ChosenK       *Histogram `metric:"pka_dedup_chosen_k" help:"K chosen by the suite sweep" buckets:"2,4,8,16,32,64,128"`
	SuiteErrorPct *Histogram `metric:"pka_dedup_suite_error_pct" help:"suite-level projected-cycle error at selection" buckets:"0.5,1,2,5,10,20,50"`
}

// DedupMetrics returns the suite-dedup bundle; nil on a nil Observer.
func (o *Observer) DedupMetrics() *DedupMetrics {
	if o == nil {
		return nil
	}
	return o.dedup
}

// bind registers every instrument field of bundle B on r from its tags
// and returns the bundle. A field of another type, or a malformed bound,
// is a programming error and panics.
func bind[B any](r *Registry) *B {
	b := new(B)
	v := reflect.ValueOf(b).Elem()
	for i := 0; i < v.NumField(); i++ {
		f := v.Type().Field(i)
		name, help := f.Tag.Get("metric"), f.Tag.Get("help")
		var inst any
		switch f.Type {
		case reflect.TypeOf((*Counter)(nil)):
			inst = r.Counter(name, help)
		case reflect.TypeOf((*Gauge)(nil)):
			inst = r.Gauge(name, help)
		case reflect.TypeOf((*Histogram)(nil)):
			var bounds []float64
			for _, s := range strings.Split(f.Tag.Get("buckets"), ",") {
				x, err := strconv.ParseFloat(s, 64)
				if err != nil {
					panic(fmt.Sprintf("obs: %s bucket %q: %v", name, s, err))
				}
				bounds = append(bounds, x)
			}
			inst = r.Histogram(name, help, bounds)
		default:
			panic(fmt.Sprintf("obs: bundle field %s.%s is not an instrument", v.Type().Name(), f.Name))
		}
		v.Field(i).Set(reflect.ValueOf(inst))
	}
	return b
}

// --- Cache statistics -----------------------------------------------------

// CacheCounts is one cache family's counters as published through
// RegisterCacheStats. The disk-backed artifact family also reports
// evictions and corrupt-entry recoveries; in-memory singleflight families
// leave those zero.
type CacheCounts struct {
	Hits      uint64
	Misses    uint64
	Evictions uint64
	Corrupt   uint64
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

// SyncCacheStats polls every registered cache-counter source and copies the
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
