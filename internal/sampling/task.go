// Kernel-granular task execution: every simulation the study layer runs —
// full-baseline kernels, PKS/PKA group representatives and the TBPoint and
// first-N-instructions baselines alike — is one
// KernelTask on one kernel, executed on a fresh simulator. That makes each
// task a pure function of (device, kernel feature vector, task spec), which
// buys the two properties this file exists for: tasks can be scheduled
// independently on the global longest-first scheduler, and their outcomes
// can be memoized — in memory with singleflight semantics and on disk in a
// content-addressed artifact store — because the content key fully
// determines the result.
package sampling

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"pka/internal/artifact"
	"pka/internal/gpu"
	"pka/internal/obs"
	"pka/internal/parallel"
	"pka/internal/pkp"
	"pka/internal/sim"
	"pka/internal/trace"
	"pka/internal/workload"
)

// TaskMode selects the per-kernel simulation policy.
type TaskMode uint8

// The policies the study layer runs per kernel.
const (
	// ModeFull runs the kernel to completion (full-baseline semantics).
	ModeFull TaskMode = iota
	// ModePKS runs under the cycle cap and extrapolates capped kernels by
	// their lifetime average (sampled simulation without projection).
	ModePKS
	// ModePKA runs under Principal Kernel Projection's stability
	// controller and projects the truncated run.
	ModePKA
	// ModeBlocks (TBPoint) runs ⌈BlockFraction·grid⌉ blocks under the cycle
	// cap and extrapolates as ModePKS does.
	ModeBlocks
	// ModeFirstN (1B's cut launch) issues WarpBudget warp instructions and
	// reports that prefix unprojected.
	ModeFirstN
)

// PKPSpec is the semantic subset of pkp.Options — the fields that change
// results. Observe-only wiring (audit, metrics) deliberately lives in
// TaskObs instead, so telemetry can never split or poison cache keys.
type PKPSpec struct {
	Threshold             float64
	Window                int
	DisableWaveConstraint bool
}

// NewPKPSpec canonicalizes PKP parameters: zero values are resolved to the
// package defaults, so configurations that mean the same thing produce the
// same content key.
func NewPKPSpec(o pkp.Options) PKPSpec {
	sp := PKPSpec{Threshold: o.Threshold, Window: o.Window, DisableWaveConstraint: o.DisableWaveConstraint}
	if sp.Threshold <= 0 {
		sp.Threshold = pkp.DefaultThreshold
	}
	if sp.Window <= 0 {
		sp.Window = pkp.DefaultWindow
	}
	return sp
}

// KernelTask is one per-kernel unit of simulation work.
type KernelTask struct {
	Mode TaskMode
	// MaxCycles caps the simulated cycles (0 = simulator default). ModeFull
	// ignores it and runs with the simulator's own runaway guard.
	MaxCycles int64
	// PKP parameterizes the stability controller; only ModePKA reads it.
	PKP PKPSpec
	// BlockFraction is the share of the grid ModeBlocks runs.
	BlockFraction float64
	// WarpBudget is the warp instructions ModeFirstN issues.
	WarpBudget int64
}

// SampledTask is the task spec a sampled run issues for each representative:
// PKS mode, or PKA mode when usePKP is set, under the cycle cap (zero applies
// sim.DefaultMaxCycles). Every sampled pass takes it from here, because
// content keys only match when the specs agree byte for byte.
func SampledTask(capCycles int64, o pkp.Options, usePKP bool) KernelTask {
	if capCycles <= 0 {
		capCycles = sim.DefaultMaxCycles
	}
	if usePKP {
		return KernelTask{Mode: ModePKA, MaxCycles: capCycles, PKP: NewPKPSpec(o)}
	}
	return KernelTask{Mode: ModePKS, MaxCycles: capCycles}
}

// BlocksTask is TBPoint's task spec: fraction of the grid under the cycle
// cap (zero applies sim.DefaultMaxCycles).
func BlocksTask(capCycles int64, fraction float64) KernelTask {
	if capCycles <= 0 {
		capCycles = sim.DefaultMaxCycles
	}
	return KernelTask{Mode: ModeBlocks, MaxCycles: capCycles, BlockFraction: fraction}
}

// KernelOutcome is the cacheable result of one kernel task: exactly the
// values the study layer accumulates, and nothing tied to observation.
type KernelOutcome struct {
	// ProjCycles is the kernel's (projected, for sampled modes) cycles.
	ProjCycles int64
	// SimWarpInstrs is the work actually simulated — the cost side.
	SimWarpInstrs int64
	// ThreadInstrs is the (projected) executed thread instructions.
	ThreadInstrs float64
	// DRAMUtil is the kernel's DRAM utilization (a rate; no scaling).
	DRAMUtil float64
	// Capped reports the run hit the task's cycle cap.
	Capped bool
	// Truncated reports any extrapolation happened.
	Truncated bool
}

// TaskObs is the observe-only wiring for one kernel task. It is outside
// the content key and the cached payload by design: telemetry can never
// change a result, and cached runs simply skip it.
type TaskObs struct {
	Sim          *obs.SimObs
	Audit        *obs.Audit
	AuditSubject string
	PKPMetrics   *obs.PKPMetrics

	// Provenance: when Flight is set, the ladder records one ProvEntry per
	// task under (Phase, Index) with the launch's Kernel name. QueuedAt
	// marks scheduler submission so queue wait can be attributed; RunKernels
	// fills it (and Kernel) when the caller leaves them zero.
	Flight   *FlightRecorder
	Phase    string
	Index    int
	Kernel   string
	QueuedAt time.Time
}

// taskSchema salts every content key with the outcome encoding and task
// semantics version; bump it (or artifact.Version) whenever either
// changes meaning.
const taskSchema = "pka-kernel-task-v1"

// TaskKey derives the content-addressed key of one kernel task: a SHA-256
// over the device configuration, the kernel's semantic feature vector, and
// the task spec. The kernel's launch index and name are deliberately
// excluded — two launches with identical features are the same work, which
// is exactly the redundancy the paper's methodology exploits.
func TaskKey(dev gpu.Device, k *trace.KernelDesc, t KernelTask) string {
	return newKeyer(dev, t).key(appendKernelSection(nil, k))
}

// taskKeys derives the TaskKeys of one batch: the device and task sections
// are built once and every kernel section goes through one reused buffer.
func taskKeys(dev gpu.Device, t KernelTask, kernels []trace.KernelDesc) []string {
	tk, kSec := newKeyer(dev, t), make([]byte, 0, 22*8)
	keys := make([]string, len(kernels))
	for i := range kernels {
		kSec = appendKernelSection(kSec[:0], &kernels[i])
		keys[i] = tk.key(kSec)
	}
	return keys
}

// keyer holds the sections every TaskKey under one device and task spec
// shares.
type keyer struct{ schema, devSec, tSec []byte }

func newKeyer(dev gpu.Device, t KernelTask) keyer {
	return keyer{[]byte(taskSchema), appendDeviceSection(make([]byte, 0, 256), dev), appendTaskSection(make([]byte, 0, 5*8), t)}
}

// appendTaskSection appends every field of t that its mode reads — the task
// half of TaskKey and of an evaluation's PackKey.
func appendTaskSection(b []byte, t KernelTask) []byte {
	b = appendInt64(appendInt(b, int(t.Mode)), t.MaxCycles)
	if t.Mode == ModePKA {
		b = appendInt(appendFloat(b, t.PKP.Threshold), t.PKP.Window)
		b = appendBool(b, t.PKP.DisableWaveConstraint)
	}
	if t.Mode == ModeBlocks {
		b = appendFloat(b, t.BlockFraction)
	} else if t.Mode == ModeFirstN {
		b = appendInt64(b, t.WarpBudget)
	}
	return b
}

// key is the TaskKey of the launch whose kernel section (appendKernelSection's
// bytes) is kSec.
func (tk keyer) key(kSec []byte) string {
	derived.taskKeys.Add(1)
	return artifact.Key(tk.schema, tk.devSec, kSec, tk.tSec)
}

// derived counts the TaskKeys, pack keys and digests hashed, for the tests.
var derived struct{ taskKeys, packKeys, digests atomic.Int64 }

// The key sections are little-endian 64-bit words: ints sign-extended,
// floats as IEEE-754 bits, bools as 0 or 1. A 64-bit field goes through
// appendInt64 whatever the width of int, so no two values share a key.
func appendInt(b []byte, v int) []byte { return appendInt64(b, int64(v)) }

func appendInt64(b []byte, v int64) []byte { return binary.LittleEndian.AppendUint64(b, uint64(v)) }

func appendFloat(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

func appendBool(b []byte, v bool) []byte {
	if v {
		return appendInt(b, 1)
	}
	return appendInt(b, 0)
}

// appendKernelSection appends every semantic field of one launch — all of
// KernelDesc but the launch index and the name — as TaskKey hashes it.
// SelectionKey hashes the same bytes per launch, plus the name.
func appendKernelSection(b []byte, k *trace.KernelDesc) []byte {
	for _, v := range [...]int{
		k.Grid.X, k.Grid.Y, k.Grid.Z, k.Block.X, k.Block.Y, k.Block.Z,
		k.RegsPerThread, k.SharedMemPerBlock,
		k.Mix.GlobalLoads, k.Mix.GlobalStores, k.Mix.LocalLoads, k.Mix.SharedLoads,
		k.Mix.SharedStores, k.Mix.GlobalAtomics, k.Mix.Compute, k.Mix.TensorOps,
	} {
		b = appendInt(b, v)
	}
	b = appendFloat(b, k.CoalescingFactor)
	b = appendInt64(b, k.WorkingSetBytes)
	b = appendFloat(b, k.StridedFraction)
	b = appendFloat(b, k.DivergenceEff)
	b = appendFloat(b, k.BlockImbalance)
	return binary.LittleEndian.AppendUint64(b, k.Seed)
}

// appendDeviceSection appends every semantic device-configuration field —
// the device half of TaskKey and of the selection key.
func appendDeviceSection(b []byte, dev gpu.Device) []byte {
	b = append(b, dev.Name...)
	b = append(b, '|')
	b = append(b, dev.Generation.String()...)
	for _, v := range [...]int{
		dev.NumSMs, dev.CoreClockMHz, dev.WarpSize, dev.MaxWarpsPerSM, dev.MaxBlocksPerSM,
		dev.MaxThreadsPerSM, dev.RegistersPerSM, dev.SharedMemPerSM, dev.SchedulersPerSM,
		dev.L1SizeBytes, dev.L2SizeBytes, dev.CacheLineBytes,
	} {
		b = appendInt(b, v)
	}
	b = appendFloat(b, dev.DRAMBandwidthGBs)
	for _, v := range [...]int{
		dev.L1LatencyCycles, dev.L2LatencyCycles, dev.DRAMLatency, dev.ALULatencyCycles, dev.SMemLatency,
	} {
		b = appendInt(b, v)
	}
	b = appendBool(b, dev.HasTensorCores)
	return appendFloat(b, dev.ISAScale)
}

// selectionSchema salts every selection key with the payload encoding and
// the selection semantics: bump it whenever profiler, linalg, cluster,
// classify or pks arithmetic changes a byte of a Selection, or primed stores
// keep serving the old one. core's TestSelectionGolden pins the keys beside
// the payload hashes.
const selectionSchema = "pka-selection-v1"

// SelectionKey derives the content key core.Select stores a workload's
// Principal Kernel Selection under. It hashes everything a Selection is a
// function of: the device, the workload's name and launch count, the filled
// options (optsSection is pks.Options.AppendKey's bytes; this package does
// not import pks), and every launch in order — TaskKey's kernel section plus
// the kernel name, which TaskKey rightly omits and a selection cannot (names
// feed NameCounts and the light-profile classifier). Launches stream through
// one buffer, so a million-launch workload keys in constant memory. It is a
// scan that asks for the key alone (see ScanLaunches).
func SelectionKey(dev gpu.Device, w *workload.Workload, optsSection []byte) string {
	sc, _ := ScanLaunches(dev, w, Want{Key: true, KeyOpts: optsSection}) // only the silicon fold can fail
	return sc.Key
}

// outcomeSize is the fixed on-disk payload size of one KernelOutcome.
const outcomeSize = 8 + 8 + 8 + 8 + 1

// EncodeOutcome serializes an outcome exactly (floats as IEEE-754 bits).
// The encoding doubles as the disk-cache payload and the shard peers' wire
// format, so a peer's artifact store and the client's are interchangeable
// byte-for-byte.
func EncodeOutcome(oc KernelOutcome) []byte {
	b := make([]byte, outcomeSize)
	binary.LittleEndian.PutUint64(b[0:], uint64(oc.ProjCycles))
	binary.LittleEndian.PutUint64(b[8:], uint64(oc.SimWarpInstrs))
	binary.LittleEndian.PutUint64(b[16:], math.Float64bits(oc.ThreadInstrs))
	binary.LittleEndian.PutUint64(b[24:], math.Float64bits(oc.DRAMUtil))
	var flags byte
	if oc.Capped {
		flags |= 1
	}
	if oc.Truncated {
		flags |= 2
	}
	b[32] = flags
	return b
}

// DecodeOutcome parses EncodeOutcome's layout, rejecting anything else.
func DecodeOutcome(b []byte) (KernelOutcome, error) {
	if len(b) != outcomeSize || b[32] > 3 {
		return KernelOutcome{}, fmt.Errorf("sampling: outcome payload malformed (%d bytes)", len(b))
	}
	return KernelOutcome{
		ProjCycles:    int64(binary.LittleEndian.Uint64(b[0:])),
		SimWarpInstrs: int64(binary.LittleEndian.Uint64(b[8:])),
		ThreadInstrs:  math.Float64frombits(binary.LittleEndian.Uint64(b[16:])),
		DRAMUtil:      math.Float64frombits(binary.LittleEndian.Uint64(b[24:])),
		Capped:        b[32]&1 != 0,
		Truncated:     b[32]&2 != 0,
	}, nil
}

// ShardTier is the fleet's sharded outcome cache: the pkad peers, where
// each content key has a small owner set holding its cached payload. It sits between the local disk cache and
// the simulator in the Exec ladder — a peer GET is far cheaper than
// re-simulating. Implementations must be safe for concurrent use and must
// never surface transport failures: ok=false means "no reachable owner
// holds the key", whatever the reason.
type ShardTier interface {
	// Lookup fetches the payload cached under key from the key's owner
	// shard, falling back through its replicas. peer names the shard that
	// served a hit (for provenance).
	Lookup(key string) (payload []byte, peer string, ok bool)
	// Store replicates payload to key's owner shards, best-effort. Purity
	// of outcomes makes replication idempotent: owners may be written the
	// same bytes by any number of processes in any order.
	Store(key string, payload []byte)
}

// Exec bundles the execution resources one study run shares across all of
// its kernel tasks: the global scheduler, the persistent artifact store,
// an in-memory singleflight outcome cache layered above it, and an
// optional sharded fleet cache between the disk cache and local
// simulation. A nil *Exec is valid and degrades every entry point to
// the serial, uncached behaviour — one fresh simulator per kernel on the
// calling goroutine.
type Exec struct {
	sched *parallel.Scheduler
	store *artifact.Store // kernel outcomes: CacheStats' "artifact" family
	sels  *artifact.Store // store's View for whole selections: "selection"
	packs *artifact.Store // store's View for whole evaluations (see Pack): "batch"
	shard ShardTier
	mem   parallel.Cache[string, KernelOutcome]
	execM *obs.ExecMetrics
}

// NewExec builds an Exec. Either resource may be nil: a nil scheduler runs
// tasks inline on the caller, a nil store caches in memory only.
func NewExec(sched *parallel.Scheduler, store *artifact.Store) *Exec {
	return &Exec{sched: sched, store: store, sels: store.View(), packs: store.View()}
}

// SetShard installs (or, with nil, removes) the sharded fleet-cache tier.
// Because outcomes are pure functions of the content key and the fold is
// in launch order, it can only move where bytes come from, never what they
// are: payloads are validated by DecodeOutcome and anything unexpected
// falls through the ladder as a miss.
func (e *Exec) SetShard(s ShardTier) {
	if e != nil {
		e.shard = s
	}
}

// SetMetrics installs (or, with nil, removes) the per-tier metrics bundle.
// Observe-only: tier counters and latency histograms, never results.
func (e *Exec) SetMetrics(m *obs.ExecMetrics) {
	if e != nil {
		e.execM = m
	}
}

// Scheduler returns the exec's scheduler (nil for inline execution).
func (e *Exec) Scheduler() *parallel.Scheduler {
	if e == nil {
		return nil
	}
	return e.sched
}

// Store returns the exec's artifact store (nil when not persisting).
func (e *Exec) Store() *artifact.Store {
	if e == nil {
		return nil
	}
	return e.store
}

// MemStats reports the in-memory outcome cache's singleflight counters.
func (e *Exec) MemStats() (hits, misses uint64) {
	if e == nil {
		return 0, 0
	}
	return e.mem.Stats()
}

// Selections returns the handle core.Select keeps whole selections under:
// the exec's store, counted apart from its kernel outcomes (nil without one).
func (e *Exec) Selections() *artifact.Store {
	if e == nil {
		return nil
	}
	return e.sels
}

// CacheStats reports hit/miss counters for every cache this exec holds —
// "kernel_mem", plus "artifact", "batch" and "selection" with a store — in
// the shape obs.RegisterCacheStats wants. Every binary takes its families
// from here. The shard tier is not a family: its lookups are counted once,
// as pka_shard_peer_{hits,misses}_total.
func (e *Exec) CacheStats() map[string]obs.CacheCounts {
	h, m := e.MemStats()
	out := map[string]obs.CacheCounts{"kernel_mem": {Hits: h, Misses: m}}
	if st := e.Store(); st != nil {
		a := st.Stats()
		out["artifact"] = obs.CacheCounts{Hits: a.Hits, Misses: a.Misses, Evictions: a.Evictions, Corrupt: a.Corrupt}
		s := e.sels.Stats()
		out["selection"] = obs.CacheCounts{Hits: s.Hits, Misses: s.Misses, Corrupt: s.Corrupt}
		b := e.packs.Stats()
		out["batch"] = obs.CacheCounts{Hits: b.Hits, Misses: b.Misses, Corrupt: b.Corrupt}
	}
	return out
}

// RunKernels executes p's task once per kernel of p through the scheduler and
// the cache layers and returns the outcomes in input order, so folding them
// is bit-identical to the serial loop they replace. p.Obs supplies the
// observe-only wiring per kernel (nil for none), and p.Keys the kernels'
// TaskKeys where the caller holds them (a Scan's; nil derives them here). The
// scheduler prioritizes by each kernel's dynamic warp-instruction count,
// longest-first. p.Pack (nil for none) is the evaluation's pack p was bound
// in. When it serves, the pass is a copy of its outcomes (see served): no
// task reaches the ladder. Otherwise it carries riders on the tasks that
// simulate and hands banked outcomes to their own tasks. A pass the mem tier
// serves whole (see settled) resolves on the calling goroutine. A nil exec
// simulates every task on its own. p's slices are only read (they may be a
// remembered Scan's, see ScanLaunches).
func (e *Exec) RunKernels(dev gpu.Device, p RiderPass) ([]KernelOutcome, error) {
	if p.Pack.serves() {
		return e.served(p), nil
	}
	tobs := p.Obs
	if tobs == nil {
		tobs = func(int) TaskObs { return TaskObs{} }
	}
	// All kernels are submitted to the scheduler here; queue wait is
	// measured from this point to each task's execution start.
	submitted := time.Now()
	cost := func(k trace.KernelDesc) int64 { return k.TotalWarpInstructions(dev) }
	// Keys the pass does not carry are derived here, serially, so the batch
	// shares one device section and one buffer; a nil exec caches nothing and
	// needs none.
	keys := p.Keys
	if e != nil && len(keys) != len(p.Kernels) {
		keys = taskKeys(dev, p.Task, p.Kernels)
	}
	sched := e.Scheduler()
	if sched != nil && e.settled(keys) {
		sched = nil
	}
	return parallel.SchedMap(sched, p.Kernels, cost, func(i int, k trace.KernelDesc) (KernelOutcome, error) {
		to := tobs(i)
		if to.Flight != nil {
			if to.QueuedAt.IsZero() {
				to.QueuedAt = submitted
			}
			if to.Kernel == "" {
				to.Kernel = k.Name
			}
		}
		if e == nil {
			return simulateKernel(dev, k, p.Task, to, nil, "")
		}
		return e.run(keys[i], dev, k, p.Task, to, p.Pack)
	})
}

// served resolves a pass its evaluation's pack serves — the pack was read,
// bound, and its digest matched — as a copy of the pack's outcomes for it. No
// task of such an evaluation simulates, so nothing is banked, and the pack
// holds the bytes every tier would serve: the pass calls no scheduler, adds
// no mem-tier entry and waits on no other caller's compute. The mem tier is
// only read, for accounting: a task whose key is a completed mem-tier entry
// is TierMem, any other TierDisk. Observed tasks keep their provenance entry
// and tier observation.
func (e *Exec) served(p RiderPass) []KernelOutcome {
	outs := slices.Clone(p.Pack.outs[p.At : p.At+len(p.Kernels)])
	if p.Obs == nil && e.execM == nil {
		return outs
	}
	submitted := time.Now()
	for i := range outs {
		var to TaskObs
		if p.Obs != nil {
			to = p.Obs(i)
		}
		if to.Flight == nil && e.execM == nil {
			continue
		}
		start := time.Now()
		tier := TierDisk
		if _, done, _ := e.mem.Peek(p.Keys[i]); done {
			tier = TierMem
		}
		end := time.Now()
		e.execM.Observe(int(tier), end.Sub(start).Seconds())
		if to.QueuedAt.IsZero() {
			to.QueuedAt = submitted
		}
		if to.Kernel == "" {
			to.Kernel = p.Kernels[i].Name
		}
		e.record(to, p.Keys[i], tier, start, end, "")
	}
	return outs
}

// settled reports whether every key of a pass is a completed mem-tier entry
// — a storeless or packless repeat — so the ladder serves it without
// simulating or persisting anything. Such a pass costs microseconds, less
// than its scheduler handoff; any other goes to the scheduler whole, so
// passes served from banked outcomes still persist in parallel.
func (e *Exec) settled(keys []string) bool {
	for _, key := range keys {
		if _, done, _ := e.mem.Peek(key); !done {
			return false
		}
	}
	return true
}

// run resolves the task keyed key (nil pack for none) through the ladder: mem
// singleflight → the pack's banked outcomes → disk → owner shard → fresh sim.
// The banked outcomes are asked before any tier that costs I/O; they are byte
// for byte what those would serve. A pass its pack serves never gets here
// (see served).
func (e *Exec) run(key string, dev gpu.Device, k trace.KernelDesc, task KernelTask, to TaskObs, pack *Pack) (KernelOutcome, error) {
	// observed gates all timing: with no flight recorder and no metrics
	// bundle the ladder takes no clock readings at all.
	observed := to.Flight != nil || e.execM != nil
	var start time.Time
	if observed {
		start = time.Now()
	}
	// tier is closure-local per caller: the singleflight runs only
	// the winning caller's closure (on its own goroutine), so waiters keep
	// the TierMem default — they were indeed served from memory, even
	// though the tier split for duplicate keys depends on scheduling. The
	// per-tier counts always sum to the launch count either way.
	tier := TierMem
	var shardPeer string
	oc, err := e.mem.Do(key, func() (KernelOutcome, error) {
		if oc, ok := pack.take(key); ok {
			// An earlier pass of this evaluation read this outcome off its
			// own run. This task is the one that asked for it, so this task
			// accounts for the simulation and persists it.
			tier = TierSim
			e.persist(key, oc)
			return oc, nil
		}
		if raw, ok := e.store.Get(key); ok {
			if oc, err := DecodeOutcome(raw); err == nil {
				tier = TierDisk
				return oc, nil
			}
			// Undecodable payload under a valid checksum means schema
			// drift without a version bump; recompute and overwrite.
			e.store.Reject()
		}
		if e.shard != nil {
			if raw, peer, ok := e.shard.Lookup(key); ok {
				if oc, err := DecodeOutcome(raw); err == nil {
					tier = TierShard
					shardPeer = peer
					_ = e.store.Put(key, raw) // warm the local disk tier too
					return oc, nil
				}
				// A peer served bytes the current schema can't decode:
				// treat as a miss and recompute.
			}
		}
		tier = TierSim
		oc, err := simulateKernel(dev, k, task, to, pack, key)
		if err != nil {
			return KernelOutcome{}, err
		}
		e.persist(key, oc)
		return oc, nil
	})
	if err != nil {
		return oc, err
	}
	if observed {
		end := time.Now()
		e.execM.Observe(int(tier), end.Sub(start).Seconds())
		e.record(to, key, tier, start, end, shardPeer)
	}
	return oc, nil
}

// record appends one provenance entry for a task served at tier. No-op
// without a flight recorder.
func (e *Exec) record(to TaskObs, key string, tier Tier, start, end time.Time, peer string) {
	if to.Flight == nil {
		return
	}
	entry := ProvEntry{
		Phase:     to.Phase,
		Index:     to.Index,
		Kernel:    to.Kernel,
		Key:       key,
		Tier:      tier,
		Peer:      peer,
		ServiceNs: end.Sub(start).Nanoseconds(),
	}
	if !to.QueuedAt.IsZero() {
		if wait := start.Sub(to.QueuedAt); wait > 0 {
			entry.WaitNs = wait.Nanoseconds()
		}
	}
	to.Flight.Record(entry)
}

// persist lands an outcome this process did not read from a cache in the
// local disk tier and on its owner shards, best-effort.
func (e *Exec) persist(key string, oc KernelOutcome) {
	raw := EncodeOutcome(oc)
	_ = e.store.Put(key, raw)
	if e.shard != nil {
		e.shard.Store(key, raw)
	}
}

// simPools recycles simulators across kernel tasks, one pool per device so a
// multi-device study does not rebuild one per task. A cold-start simulator
// allocates every SM's warp/block/ready arrays plus all L1s and the L2 —
// ~730 allocations — and the study layer churns through one per task.
// Entries are stored flushed (cold caches).
var simPools sync.Map // gpu.Device → *sync.Pool of *sim.Simulator

// acquireSim returns a cold simulator for dev, pooled when there is one.
func acquireSim(dev gpu.Device) *sim.Simulator {
	if p, ok := simPools.Load(dev); ok {
		if s, ok := p.(*sync.Pool).Get().(*sim.Simulator); ok {
			return s
		}
	}
	return sim.New(dev)
}

// releaseSim flushes s back to the cold state and pools it.
func releaseSim(s *sim.Simulator) {
	s.Flush()
	p, ok := simPools.Load(s.Device())
	if !ok {
		p, _ = simPools.LoadOrStore(s.Device(), new(sync.Pool))
	}
	p.(*sync.Pool).Put(s)
}

// simulateKernel runs the kernel task keyed key on a cold simulator. The
// passes pack plans for this kernel (none for a nil pack) ride along as
// further probes of the same pass, and their outcomes — exactly what
// simulating each alone returns — are banked in the pack. Cold matters: starting every
// kernel from cold caches is what makes the outcome a pure function of the
// inputs in the key. Simulators are pooled and flushed between tasks, which
// is observationally identical to sim.New per task (see Simulator.Flush)
// without re-paying the construction allocations. The pass reports to the
// first SimObs among the task's and the riders', once, with its final state.
func simulateKernel(dev gpu.Device, k trace.KernelDesc, task KernelTask, to TaskObs, pack *Pack, key string) (KernelOutcome, error) {
	riders := pack.riders(task, key)
	probes := make([]sim.Probe, 1+len(riders))
	outcomes := make([]func(*sim.KernelResult) KernelOutcome, len(probes))
	simObs := to.Sim
	for i := range probes {
		t, o := task, to
		if i > 0 {
			t, o = riders[i-1].task, riders[i-1].obs
		}
		var err error
		if probes[i], outcomes[i], err = probeOf(&k, t, o); err != nil {
			return KernelOutcome{}, err
		}
		if simObs == nil {
			simObs = o.Sim
		}
	}
	s := acquireSim(dev)
	defer releaseSim(s)
	res, err := s.RunProbes(&k, sim.Options{Controller: probes[0].Controller, MaxCycles: probes[0].MaxCycles, Riders: probes[1:], Obs: simObs})
	if err != nil {
		return KernelOutcome{}, err
	}
	for i, r := range riders {
		pack.deposit(r.key, outcomes[1+i](res[1+i]))
	}
	return outcomes[0](res[0]), nil
}

// probeOf returns the point of k's trajectory task reads its result at, and
// how that result becomes the task's outcome.
func probeOf(k *trace.KernelDesc, task KernelTask, to TaskObs) (sim.Probe, func(*sim.KernelResult) KernelOutcome, error) {
	switch task.Mode {
	case ModeFull:
		return sim.Probe{}, prefixOutcome, nil
	case ModeFirstN:
		budget := task.WarpBudget
		return sim.Probe{Controller: sim.ControllerFunc(func(t *sim.Telemetry) bool {
			return t.WarpInstrs >= budget
		}), MaxCycles: task.MaxCycles}, prefixOutcome, nil
	case ModeBlocks:
		target := max(1, int(math.Ceil(task.BlockFraction*float64(k.Grid.Count()))))
		return sim.Probe{Controller: sim.ControllerFunc(func(t *sim.Telemetry) bool {
				return t.BlocksCompleted >= target
			}), MaxCycles: task.MaxCycles}, func(res *sim.KernelResult) KernelOutcome {
				return outcomeFromProjection(pkp.Project(res), res, task)
			}, nil
	case ModePKS:
		return sim.Probe{MaxCycles: task.MaxCycles}, func(res *sim.KernelResult) KernelOutcome {
			return outcomeFromProjection(pkp.Project(res), res, task)
		}, nil
	case ModePKA:
		p := pkp.New(pkp.Options{
			Threshold:             task.PKP.Threshold,
			Window:                task.PKP.Window,
			DisableWaveConstraint: task.PKP.DisableWaveConstraint,
			Audit:                 to.Audit,
			AuditSubject:          to.AuditSubject,
			Metrics:               to.PKPMetrics,
		})
		return sim.Probe{Controller: p, MaxCycles: task.MaxCycles}, func(res *sim.KernelResult) KernelOutcome {
			return outcomeFromProjection(p.Projection(res), res, task)
		}, nil
	default:
		return sim.Probe{}, nil, fmt.Errorf("sampling: unknown task mode %d", task.Mode)
	}
}

// prefixOutcome is the run as simulated, unprojected: a whole kernel, or
// the prefix a ModeFirstN task issued.
func prefixOutcome(res *sim.KernelResult) KernelOutcome {
	return KernelOutcome{
		ProjCycles:    res.Cycles,
		SimWarpInstrs: res.WarpInstrs,
		ThreadInstrs:  res.ThreadInstrs,
		DRAMUtil:      res.DRAMUtil,
	}
}

// outcomeFromProjection folds a PKP projection into the cacheable outcome.
func outcomeFromProjection(pr pkp.Projection, res *sim.KernelResult, task KernelTask) KernelOutcome {
	return KernelOutcome{
		ProjCycles:    pr.Cycles,
		SimWarpInstrs: pr.SimulatedWarpInstrs,
		ThreadInstrs:  pr.ThreadInstrs,
		DRAMUtil:      pr.DRAMUtil,
		Capped:        task.MaxCycles > 0 && res.Cycles >= task.MaxCycles,
		Truncated:     pr.Truncated,
	}
}
