// Package sim implements a from-scratch cycle-level GPU simulator in the
// spirit of Accel-Sim: streaming multiprocessors with per-scheduler warp
// issue, scoreboarded warp latencies, set-associative L1 caches per SM, a
// shared L2, a bandwidth-constrained DRAM channel, and a thread-block
// dispatcher. It executes the synthetic warp instruction streams derived
// from trace.KernelDesc and exposes per-cycle telemetry so that online
// policies — Principal Kernel Projection in particular — can observe the
// instantaneous IPC signal and stop simulation once it stabilizes.
//
// The model is single-threaded and deterministic: the same kernel on the
// same device always produces the same cycle count. The study layer runs
// every kernel on a fresh Simulator (cold caches), which makes each
// result a pure function of (device, kernel, options) — the property the
// kernel-task scheduler and the content-addressed artifact cache in
// internal/sampling and internal/artifact are built on. Code that reuses
// one Simulator across kernels (cache state carries over) must not be
// cached under those content keys — unless it calls Flush between
// kernels, which restores the cold-cache state of a fresh Simulator.
package sim

import (
	"fmt"
	"math"
	"math/bits"

	"pka/internal/gpu"
	"pka/internal/mem"
	"pka/internal/obs"
	"pka/internal/trace"
)

// Instruction class codes used in synthetic warp streams.
const (
	opCompute = iota
	opGlobalLoad
	opGlobalStore
	opLocalLoad
	opSharedLoad
	opSharedStore
	opAtomic
	opTensor
)

// Memory accesses are modeled at 32-byte sector granularity.
const (
	sectorBytes      = 32
	sectorShiftBytes = 5 // log2(sectorBytes)
)

// Telemetry is the per-cycle view handed to a Controller. Fields are
// cumulative unless stated otherwise.
type Telemetry struct {
	Cycle           int64
	IdleGap         int64   // cycles skipped since the previous tick (no warp was ready)
	ThreadInstrs    float64 // cumulative executed thread instructions
	WarpInstrs      int64   // cumulative issued warp instructions
	IssuedThisCycle float64 // thread instructions issued on this cycle
	BlocksCompleted int
	BlocksTotal     int
	WaveSize        int // blocks that fill the device at this kernel's occupancy
}

// Controller observes simulation progress once per active cycle and may
// stop the kernel early by returning true. PKP is a Controller; so is the
// first-N-instructions baseline.
type Controller interface {
	Tick(t *Telemetry) (stop bool)
}

// ControllerFunc adapts a function to the Controller interface.
type ControllerFunc func(t *Telemetry) bool

// Tick implements Controller.
func (f ControllerFunc) Tick(t *Telemetry) bool { return f(t) }

// IPCSample is one bucket of the optional IPC/L2/DRAM trace.
type IPCSample struct {
	Cycle    int64
	IPC      float64 // thread instructions per cycle over the bucket
	L2Miss   float64 // cumulative L2 miss rate at bucket end
	DRAMUtil float64 // cumulative DRAM utilization at bucket end
}

// KernelResult aggregates one kernel simulation.
type KernelResult struct {
	Kernel     *trace.KernelDesc
	Cycles     int64
	WarpInstrs int64
	// ExpectedWarpInstrs is the launch's nominal warp-instruction count,
	// KernelDesc.TotalWarpInstructions: the grid's warps times the mix,
	// scaled to the device. A completed run need not issue exactly that —
	// warps round their share to whole instructions, and BlockImbalance
	// scales each block's — so it is an estimate of where WarpInstrs ends.
	// Truncation policies project progress against it.
	ExpectedWarpInstrs int64
	ThreadInstrs       float64
	IPC                float64 // thread instructions per cycle
	L2MissRate         float64
	DRAMUtil           float64
	BlocksCompleted    int
	BlocksTotal        int
	WaveSize           int
	StoppedEarly       bool
	Trace              []IPCSample // populated when Options.TraceEvery > 0
}

// Probe is one stopping rule: the point of the kernel's trajectory at which
// a result is read.
type Probe struct {
	// Controller may stop the kernel early; nil runs to completion.
	Controller Controller
	// MaxCycles caps runaway kernels. Zero applies DefaultMaxCycles.
	MaxCycles int64
}

// Options tunes a simulation run.
type Options struct {
	// Controller and MaxCycles are the run's own Probe, the one whose result
	// RunKernel returns.
	Controller Controller
	MaxCycles  int64
	// Riders are further probes read off the same pass (see RunProbes).
	Riders []Probe
	// TraceEvery > 0 records an IPCSample every TraceEvery cycles.
	TraceEvery int64
	// Obs, when non-nil, receives one wall-clock span and one batch of
	// counter updates per kernel, emitted at kernel end. The cycle loop
	// itself is never touched, so enabling telemetry cannot perturb
	// determinism or the loop's zero-allocation guarantee.
	Obs *obs.SimObs
}

// DefaultMaxCycles bounds a single kernel simulation.
const DefaultMaxCycles = 200_000_000

// Simulator owns the device state. The L2 and DRAM persist across kernels
// within one Simulator (warm caches), while per-kernel statistics are
// isolated via ResetStats.
type Simulator struct {
	dev  gpu.Device
	l2   *mem.Cache
	dram *mem.DRAM
	l1   []*mem.Cache
	sms  []smState
	// due is the wheel over SMs (see sched.go): SM i is ready while it needs
	// a pass, asleep until its earliest pending event otherwise, and in
	// neither while it has no resident block.
	due wheel
}

type warpSlot struct {
	nextReady int64
	pending   int64 // completion time of the older in-flight load (0 = none)
	instrLeft int32
	patPos    int32
	cursor    uint64 // strided address cursor (in sectors)
	base      uint64 // strided base address
	rng       uint64 // per-warp xorshift state
	blockSlot int32
}

type smState struct {
	// wheel is the SM's warp scheduler (see sched.go): ready holds warps
	// whose stall has expired; the rest sleep until it does.
	wheel
	warps     []warpSlot
	warpsLeft []int // per block slot: warps of the resident block still running
	resident  int   // live blocks
	rrPtr     int
}

// runCtx holds the per-kernel constants of the cycle loop, precomputed
// once per launch so the memory path does no repeated int/uint/float
// conversions, divisions by known powers of two, or modulo operations on
// power-of-two working sets.
type runCtx struct {
	l1Lat, l2Lat  int64
	lineBytes     int
	lineBytesU    uint64
	wsLines       uint64
	wsMask        uint64 // wsLines-1 when wsLines is a power of two, else 0
	sectorShift   uint   // log2(sectors per line)
	nSectors      int
	stridedThresh float64 // StridedFraction * 2^53, compared against rng>>11
}

// New creates a simulator for the given device.
func New(dev gpu.Device) *Simulator {
	s := &Simulator{
		dev:  dev,
		l2:   mem.NewCache(dev.L2SizeBytes, 16, dev.CacheLineBytes),
		dram: mem.NewDRAM(dev.BytesPerCycle(), dev.DRAMLatency),
		l1:   make([]*mem.Cache, dev.NumSMs),
		sms:  make([]smState, dev.NumSMs),
	}
	for i := range s.l1 {
		s.l1[i] = mem.NewCache(dev.L1SizeBytes, 8, dev.CacheLineBytes)
	}
	return s
}

// Device returns the simulated device configuration.
func (s *Simulator) Device() gpu.Device { return s.dev }

// Flush restores the simulator to the state of a freshly constructed one:
// all cache lines invalidated, statistics zeroed, and the DRAM pipe
// re-aligned to cycle zero. RunKernel already resets every other piece of
// per-kernel state at launch (SM arrays are zeroed, the wheel and heaps
// cleared), so after Flush a reused Simulator is observationally identical
// to sim.New(dev) — which is what lets the study layer pool simulators
// across kernel tasks without breaking the pure-function property the
// content-addressed cache keys rely on.
func (s *Simulator) Flush() {
	s.l2.Flush()
	for _, c := range s.l1 {
		c.Flush()
	}
	s.dram.ResetStats()
	s.dram.Rebase()
}

// buildPattern produces the kernel's per-thread instruction-class sequence,
// deterministically shuffled so memory operations interleave with compute
// the way compiled kernels do.
func buildPattern(k *trace.KernelDesc) []uint8 {
	m := k.Mix
	pattern := make([]uint8, 0, m.Total())
	appendN := func(op uint8, n int) {
		for i := 0; i < n; i++ {
			pattern = append(pattern, op)
		}
	}
	appendN(opCompute, m.Compute)
	appendN(opGlobalLoad, m.GlobalLoads)
	appendN(opGlobalStore, m.GlobalStores)
	appendN(opLocalLoad, m.LocalLoads)
	appendN(opSharedLoad, m.SharedLoads)
	appendN(opSharedStore, m.SharedStores)
	appendN(opAtomic, m.GlobalAtomics)
	appendN(opTensor, m.TensorOps)
	// Fisher-Yates with a per-kernel seed.
	st := k.Seed ^ 0xDEADBEEFCAFE
	next := func() uint64 {
		st ^= st << 13
		st ^= st >> 7
		st ^= st << 17
		return st
	}
	for i := len(pattern) - 1; i > 0; i-- {
		j := int(next() % uint64(i+1))
		pattern[i], pattern[j] = pattern[j], pattern[i]
	}
	return pattern
}

// blockWorkScale returns the per-block instruction multiplier implementing
// BlockImbalance as a lognormal distribution with unit mean.
func blockWorkScale(k *trace.KernelDesc, blockID int) float64 {
	cv := k.BlockImbalance
	if cv <= 0 {
		return 1
	}
	sigma2 := math.Log(1 + cv*cv)
	sigma := math.Sqrt(sigma2)
	// Two independent hashes -> Box-Muller normal.
	h := k.Seed + uint64(blockID)*0x9E3779B97F4A7C15
	h ^= h >> 29
	h *= 0xBF58476D1CE4E5B9
	h ^= h >> 32
	u1 := float64(h>>11) / (1 << 53)
	h2 := h*0x94D049BB133111EB + 0x2545F4914F6CDD1D
	h2 ^= h2 >> 31
	u2 := float64(h2>>11) / (1 << 53)
	if u1 < 1e-12 {
		u1 = 1e-12
	}
	z := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	return math.Exp(sigma*z - sigma2/2)
}

// RunKernel simulates one kernel launch and returns its result. It returns
// an error if the kernel fails validation or cannot be scheduled on the
// device at all.
func (s *Simulator) RunKernel(k *trace.KernelDesc, opts Options) (*KernelResult, error) {
	res, err := s.RunProbes(k, opts)
	if err != nil {
		return nil, err
	}
	return res[0], nil
}

// probeRun is a probe the cycle loop is still watching.
type probeRun struct {
	Probe
	res *KernelResult
}

// RunProbes is RunKernel reading several results off one pass: result 0 is
// the run's own probe, result 1+i is opts.Riders[i], and each is exactly what
// RunKernel would have returned had that probe been the run's only one. That
// holds because a probe never feeds back: a Controller only observes until
// it answers true, and a cap is only compared against the clock, so every
// shorter run is a prefix of the longest. When a probe's controller stops, or
// the clock reaches its cap, its result is read off the live state and the
// loop goes on without it until the last probe is settled or the grid
// retires. All live controllers are handed the same Telemetry.
func (s *Simulator) RunProbes(k *trace.KernelDesc, opts Options) ([]*KernelResult, error) {
	if err := k.Validate(); err != nil {
		return nil, err
	}
	occ := s.dev.ComputeOccupancy(k.Resources())
	if occ.BlocksPerSM == 0 {
		return nil, fmt.Errorf("sim: kernel %q does not fit on %s", k.Name, s.dev.Name)
	}
	probes := append([]Probe{{opts.Controller, opts.MaxCycles}}, opts.Riders...)
	results := make([]*KernelResult, len(probes))
	live := make([]probeRun, len(probes))
	// capAt is the earliest cap among live probes (possibly stale-low after a
	// controller stop, which only costs one extra look), ticking the number
	// of live controllers: the two words the loop reads while no probe is due.
	capAt, ticking := int64(math.MaxInt64), 0
	for i, p := range probes {
		if p.MaxCycles <= 0 {
			p.MaxCycles = DefaultMaxCycles
		}
		if p.Controller != nil {
			ticking++
		}
		capAt = min(capAt, p.MaxCycles)
		results[i] = new(KernelResult)
		live[i] = probeRun{Probe: p, res: results[i]}
	}
	span := opts.Obs.StartKernel(k.Name)

	pattern := patternFor(k)
	patLen := int32(len(pattern))
	wpb := k.WarpsPerBlock()
	blocksTotal := k.Grid.Count()
	wave := occ.BlocksPerSM * s.dev.NumSMs
	threadsPer := float64(s.dev.WarpSize) * k.DivergenceEff
	isa := s.dev.ISAScale
	baseInstr := float64(k.Mix.Total()) * isa
	wsLines := uint64(k.WorkingSetBytes / int64(s.dev.CacheLineBytes))
	if wsLines < 1 {
		wsLines = 1
	}

	// Reset per-kernel statistics and re-align the DRAM pipe to the fresh
	// cycle clock; retain warmed cache contents.
	s.l2.ResetStats()
	s.dram.ResetStats()
	s.dram.Rebase()
	for _, c := range s.l1 {
		c.ResetStats()
	}

	// Initialize SM state for this kernel's occupancy shape.
	numSMs := s.dev.NumSMs
	for i := range s.sms {
		s.sms[i].reset(occ.BlocksPerSM, wpb)
	}
	s.due.reset(numSMs)

	nextBlock := 0
	completed := 0
	dispatch := func(smIdx, slot int, now int64) {
		sm := &s.sms[smIdx]
		blockID := nextBlock
		nextBlock++
		scale := blockWorkScale(k, blockID)
		instr := int32(baseInstr*scale + 0.5)
		if instr < 1 {
			instr = 1
		}
		sm.warpsLeft[slot] = wpb
		sm.resident++
		for w := 0; w < wpb; w++ {
			gw := uint64(blockID)*uint64(wpb) + uint64(w)
			idx := slot*wpb + w
			ws := &sm.warps[idx]
			*ws = warpSlot{
				nextReady: now + 20, // block launch / pipe fill latency
				instrLeft: instr,
				base:      (gw * 517) % wsLines * uint64(s.dev.CacheLineBytes),
				rng:       k.Seed ^ (gw+1)*0xA24BAED4963EE407,
				blockSlot: int32(slot),
			}
			sm.sleep(now+20, now, int32(idx))
		}
		s.due.ready.set(smIdx)
	}

	// Fill the initial wave breadth-first across SMs, the way the hardware
	// block scheduler distributes a partial grid.
	for slot := 0; slot < occ.BlocksPerSM && nextBlock < blocksTotal; slot++ {
		for i := 0; i < numSMs && nextBlock < blocksTotal; i++ {
			dispatch(i, slot, 0)
		}
	}

	var (
		now          int64
		warpInstrs   int64
		threadInstrs float64
		idleGap      int64
		traceBuf     []IPCSample
		bucketInstr  float64
		bucketStart  int64
	)
	tele := Telemetry{BlocksTotal: blocksTotal, WaveSize: wave}
	lineBytes := s.dev.CacheLineBytes
	sectorsPerLine := uint(lineBytes / sectorBytes)
	nSectors := int(k.CoalescingFactor + 0.5)
	if nSectors < 1 {
		nSectors = 1
	}
	rc := runCtx{
		l1Lat:         int64(s.dev.L1LatencyCycles),
		l2Lat:         int64(s.dev.L2LatencyCycles),
		lineBytes:     lineBytes,
		lineBytesU:    uint64(lineBytes),
		wsLines:       wsLines,
		sectorShift:   uint(bits.TrailingZeros(sectorsPerLine)),
		nSectors:      nSectors,
		stridedThresh: k.StridedFraction * (1 << 53),
	}
	if wsLines&(wsLines-1) == 0 {
		rc.wsMask = wsLines - 1
	}
	aluLat := int64(s.dev.ALULatencyCycles)
	smemLat := int64(s.dev.SMemLatency)
	schedulers := s.dev.SchedulersPerSM

	// read settles one probe: its result is the live state at cycle at.
	last := results[0]
	read := func(res *KernelResult, at int64, warpInstrs int64, threadInstrs float64, completed int, stopped bool, trace []IPCSample) {
		*res = KernelResult{
			Kernel:             k,
			Cycles:             at,
			WarpInstrs:         warpInstrs,
			ExpectedWarpInstrs: k.TotalWarpInstructions(s.dev),
			ThreadInstrs:       threadInstrs,
			L2MissRate:         s.l2.MissRate(),
			DRAMUtil:           s.dram.Utilization(at),
			BlocksCompleted:    completed,
			BlocksTotal:        blocksTotal,
			WaveSize:           wave,
			StoppedEarly:       stopped || completed < blocksTotal,
			Trace:              trace[:len(trace):len(trace)],
		}
		if at > 0 {
			res.IPC = threadInstrs / float64(at)
		}
		last = res
	}

	for completed < blocksTotal {
		if now >= capAt {
			// Some cap has been reached (an idle jump may have overshot it, as
			// it would in that probe's own run): settle those, keep the rest.
			capAt = math.MaxInt64
			kept := live[:0]
			for _, p := range live {
				if now >= p.MaxCycles {
					read(p.res, now, warpInstrs, threadInstrs, completed, false, traceBuf)
					if p.Controller != nil {
						ticking--
					}
					continue
				}
				capAt = min(capAt, p.MaxCycles)
				kept = append(kept, p)
			}
			if live = kept; len(live) == 0 {
				break
			}
		}
		issuedCycle := 0

		// Visit every SM due at or before now in index order, the linear
		// scan's order (it matters: SMs share the L2 and the DRAM pipe). A
		// pass changes no due bit but its own SM's, so each word is read once.
		s.due.drain(now)
		for dw, due := range s.due.ready {
			for ; due != 0; due &= due - 1 {
				i := dw<<6 + bits.TrailingZeros64(due)
				sm := &s.sms[i]
				// Wake every warp whose stall expires at or before now: O(1)
				// per wake, once per issued instruction over the whole run —
				// not once per warp per cycle.
				sm.drain(now)
				l1 := s.l1[i]
				issueBudget := schedulers
				dispatched := false
				// deadMin carries the post-issue nextReady of warps that retire
				// on this cycle: the linear-scan implementation min-folded that
				// value into minReady before noticing the warp had finished, so
				// the SM gets one extra (no-op) pass that advances rrPtr. Issue
				// order depends on rrPtr, so this quirk is load-bearing.
				deadMin := int64(math.MaxInt64)
				// Issue in round-robin order: ready warps in [rrPtr, n), then
				// [0, rrPtr) — the exact order of the original full scan.
				for k := 0; k <= len(sm.ready) && issueBudget > 0; k++ {
					base, ready := sm.ready.rotWord(sm.rrPtr, k)
					for ; ready != 0 && issueBudget > 0; ready &= ready - 1 {
						idx := base + bits.TrailingZeros64(ready)
						w := &sm.warps[idx]
						sm.ready.clear(idx)
						issueBudget--
						issuedCycle++
						op := pattern[w.patPos]
						w.patPos++
						if w.patPos == patLen {
							w.patPos = 0
						}
						switch op {
						case opCompute:
							w.nextReady = now + aluLat
						case opTensor:
							w.nextReady = now + aluLat*2
						case opSharedLoad, opSharedStore:
							w.nextReady = now + smemLat
						case opAtomic:
							done := s.memAccess(l1, w, now, 1, &rc, false)
							w.nextReady = done + 16 // serialization penalty
						default: // global/local loads & stores
							strided := float64(w.nextUint()>>11) < rc.stridedThresh && op != opLocalLoad
							done := s.memAccess(l1, w, now, nSectors, &rc, strided)
							if op == opGlobalStore {
								// Stores retire through the write queue without
								// stalling the warp.
								w.nextReady = now + 1
							} else if w.pending <= now {
								// Scoreboard with two outstanding loads per warp:
								// the first miss does not block issue, the second
								// stalls until the older one returns.
								w.pending = done
								w.nextReady = now + 1
							} else {
								w.nextReady = w.pending
								w.pending = done
							}
						}
						w.instrLeft--
						if w.instrLeft != 0 {
							// Still live: sleep until the stall expires
							// (nextReady > now always holds here).
							sm.sleep(w.nextReady, now, int32(idx))
							continue
						}
						if w.nextReady < deadMin {
							deadMin = w.nextReady
						}
						sm.warpsLeft[w.blockSlot]--
						if sm.warpsLeft[w.blockSlot] == 0 {
							sm.resident--
							completed++
							if nextBlock < blocksTotal {
								dispatch(i, int(w.blockSlot), now)
								dispatched = true
							}
						}
					}
				}
				sm.rrPtr++
				if sm.rrPtr >= len(sm.warps) {
					sm.rrPtr = 0
				}
				switch {
				case sm.resident == 0:
					s.due.ready.clear(i)
				case dispatched || sm.ready.any():
					// A fresh block or an unserved ready warp: stay due for the
					// next cycle (the linear scan's newMin <= now cases).
				default:
					// Finite: a resident block has a live warp, and a live warp
					// that is not ready is asleep in the wheel or the heap.
					s.due.ready.clear(i)
					s.due.sleep(min(deadMin, sm.nextWake(now)), now, int32(i))
				}
				warpInstrs += int64(schedulers - issueBudget)
			}
		}

		issuedThreads := float64(issuedCycle) * threadsPer
		threadInstrs += issuedThreads
		bucketInstr += issuedThreads

		if issuedCycle > 0 {
			tele.Cycle = now
			tele.IdleGap = idleGap
			tele.ThreadInstrs = threadInstrs
			tele.WarpInstrs = warpInstrs
			tele.IssuedThisCycle = issuedThreads
			tele.BlocksCompleted = completed
			idleGap = 0
			now++
			if ticking > 0 {
				// A controller that answers true is settled on the cycle after
				// the one it saw and never ticked again.
				for i := 0; i < len(live); i++ {
					if c := live[i].Controller; c == nil || !c.Tick(&tele) {
						continue
					}
					read(live[i].res, now, warpInstrs, threadInstrs, completed, true, traceBuf)
					ticking--
					live = append(live[:i], live[i+1:]...)
					i--
				}
				if len(live) == 0 {
					break
				}
			}
		} else {
			// Nothing issued, so no SM stayed due: jump to the first SM wake
			// (finite while a block is resident, and one is until the grid
			// retires).
			next := s.due.nextWake(now)
			idleGap += next - now
			now = next
		}

		if opts.TraceEvery > 0 && now-bucketStart >= opts.TraceEvery {
			traceBuf = append(traceBuf, IPCSample{
				Cycle:    now,
				IPC:      bucketInstr / float64(now-bucketStart),
				L2Miss:   s.l2.MissRate(),
				DRAMUtil: s.dram.Utilization(now),
			})
			bucketStart = now
			bucketInstr = 0
		}
	}

	// The grid retired: every probe still live reads the final state.
	for _, p := range live {
		read(p.res, now, warpInstrs, threadInstrs, completed, false, traceBuf)
	}
	if opts.Obs != nil {
		s.reportKernel(opts.Obs, span, last)
	}
	return results, nil
}

// reportKernel emits the per-kernel telemetry batch: the kernel span
// (annotated with the headline statistics) and the sim counter family.
// It runs once per kernel, after the cycle loop has fully retired.
func (s *Simulator) reportKernel(o *obs.SimObs, span *obs.Span, res *KernelResult) {
	span.Arg("cycles", res.Cycles).
		Arg("warp_instrs", res.WarpInstrs).
		Arg("ipc", res.IPC).
		Arg("blocks", res.BlocksCompleted).
		Arg("blocks_total", res.BlocksTotal).
		Arg("stopped_early", res.StoppedEarly).
		End()
	m := o.Metrics
	if m == nil {
		return
	}
	m.Kernels.Inc()
	if res.StoppedEarly {
		m.StoppedEarly.Inc()
	}
	m.Cycles.Add(res.Cycles)
	m.WarpInstrs.Add(res.WarpInstrs)
	var l1Hits, l1Misses int64
	for _, c := range s.l1 {
		l1Hits += c.Hits()
		l1Misses += c.Misses()
	}
	m.L1Hits.Add(l1Hits)
	m.L1Misses.Add(l1Misses)
	m.L2Hits.Add(s.l2.Hits())
	m.L2Misses.Add(s.l2.Misses())
	m.DRAMBytes.Add(s.dram.BytesMoved())
	m.KernelCycles.Observe(float64(res.Cycles))
}

// memAccess performs one warp-level global access touching nSectors
// 32-byte sectors, returning the completion cycle. The hot conversions —
// sector and line arithmetic on known powers of two, latency widths — are
// precomputed in rc once per kernel launch.
func (s *Simulator) memAccess(l1 *mem.Cache, w *warpSlot, now int64, nSectors int, rc *runCtx, strided bool) int64 {
	done := now
	if strided {
		// Consecutive sectors starting at the warp's cursor.
		startSector := w.base>>sectorShiftBytes + w.cursor
		w.cursor += uint64(nSectors)
		firstLine := startSector >> rc.sectorShift
		lastLine := (startSector + uint64(nSectors) - 1) >> rc.sectorShift
		if rc.wsMask != 0 {
			for line := firstLine; line <= lastLine; line++ {
				d := s.lineAccess(l1, line&rc.wsMask*rc.lineBytesU, now, rc.lineBytes, rc)
				if d > done {
					done = d
				}
			}
			return done
		}
		for line := firstLine; line <= lastLine; line++ {
			d := s.lineAccess(l1, line%rc.wsLines*rc.lineBytesU, now, rc.lineBytes, rc)
			if d > done {
				done = d
			}
		}
		return done
	}
	if rc.wsMask != 0 {
		for i := 0; i < nSectors; i++ {
			d := s.lineAccess(l1, w.nextUint()&rc.wsMask*rc.lineBytesU, now, sectorBytes, rc)
			if d > done {
				done = d
			}
		}
		return done
	}
	for i := 0; i < nSectors; i++ {
		d := s.lineAccess(l1, w.nextUint()%rc.wsLines*rc.lineBytesU, now, sectorBytes, rc)
		if d > done {
			done = d
		}
	}
	return done
}

// lineAccess walks one address through L1 -> L2 -> DRAM and returns the
// completion cycle. fillBytes is the DRAM transfer size on a full miss.
func (s *Simulator) lineAccess(l1 *mem.Cache, addr uint64, now int64, fillBytes int, rc *runCtx) int64 {
	if l1.Access(addr) {
		return now + rc.l1Lat
	}
	if s.l2.Access(addr) {
		return now + rc.l2Lat
	}
	return s.dram.Request(now+rc.l2Lat, fillBytes)
}

// nextUint advances the warp's xorshift address stream.
func (w *warpSlot) nextUint() uint64 {
	w.rng ^= w.rng << 13
	w.rng ^= w.rng >> 7
	w.rng ^= w.rng << 17
	return w.rng
}
