package sim

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"pka/internal/gpu"
	"pka/internal/mem"
	"pka/internal/trace"
)

// refSim is the linear-scan cycle loop that the event-driven core replaced,
// kept as the reference model (RunKernel as it stood before 0823bd0, ported
// onto today's mem.Cache and mem.DRAM). Each active cycle it visits every
// SM, and every warp of a due SM from rrPtr, keeping the earliest stall per
// SM in minReady: no wheel, heap, bitset or due set, and the instruction
// pattern is rebuilt on every launch. It is slow and obviously in issue
// order, which is what the differential test below holds RunKernel to.
type refSim struct {
	dev  gpu.Device
	l2   *mem.Cache
	dram *mem.DRAM
	l1   []*mem.Cache
	sms  []refSM
}

type refWarp struct {
	nextReady int64
	pending   int64 // completion time of the older in-flight load (0 = none)
	instrLeft int32
	patPos    int32
	active    bool
	cursor    uint64 // strided address cursor (in sectors)
	base      uint64 // strided base address
	rng       uint64 // per-warp xorshift state
	blockSlot int32
}

type refSM struct {
	warps     []refWarp
	warpsLeft []int // per block slot
	minReady  int64
	resident  int
	rrPtr     int
}

func newRefSim(dev gpu.Device) *refSim {
	s := &refSim{
		dev:  dev,
		l2:   mem.NewCache(dev.L2SizeBytes, 16, dev.CacheLineBytes),
		dram: mem.NewDRAM(dev.BytesPerCycle(), dev.DRAMLatency),
		l1:   make([]*mem.Cache, dev.NumSMs),
		sms:  make([]refSM, dev.NumSMs),
	}
	for i := range s.l1 {
		s.l1[i] = mem.NewCache(dev.L1SizeBytes, 8, dev.CacheLineBytes)
	}
	return s
}

// run is RunKernel for one probe: Controller, MaxCycles and TraceEvery are
// honoured, Riders and Obs are not.
func (s *refSim) run(k *trace.KernelDesc, opts Options) (*KernelResult, error) {
	if err := k.Validate(); err != nil {
		return nil, err
	}
	occ := s.dev.ComputeOccupancy(k.Resources())
	if occ.BlocksPerSM == 0 {
		return nil, fmt.Errorf("ref: kernel %q does not fit on %s", k.Name, s.dev.Name)
	}
	maxCycles := opts.MaxCycles
	if maxCycles <= 0 {
		maxCycles = DefaultMaxCycles
	}
	pattern := buildPattern(k)
	wpb := k.WarpsPerBlock()
	blocksTotal := k.Grid.Count()
	wave := occ.BlocksPerSM * s.dev.NumSMs
	threadsPer := float64(s.dev.WarpSize) * k.DivergenceEff
	baseInstr := float64(k.Mix.Total()) * s.dev.ISAScale
	wsLines := uint64(k.WorkingSetBytes / int64(s.dev.CacheLineBytes))
	if wsLines < 1 {
		wsLines = 1
	}

	s.l2.ResetStats()
	s.dram.ResetStats()
	s.dram.Rebase()
	for _, c := range s.l1 {
		c.ResetStats()
	}
	numSMs := s.dev.NumSMs
	for i := range s.sms {
		s.sms[i] = refSM{
			warps:     make([]refWarp, occ.BlocksPerSM*wpb),
			warpsLeft: make([]int, occ.BlocksPerSM),
		}
	}

	nextBlock, completed := 0, 0
	dispatch := func(smIdx, slot int, now int64) {
		sm := &s.sms[smIdx]
		blockID := nextBlock
		nextBlock++
		instr := int32(baseInstr*blockWorkScale(k, blockID) + 0.5)
		if instr < 1 {
			instr = 1
		}
		sm.warpsLeft[slot] = wpb
		sm.resident++
		for w := 0; w < wpb; w++ {
			gw := uint64(blockID)*uint64(wpb) + uint64(w)
			sm.warps[slot*wpb+w] = refWarp{
				nextReady: now + 20,
				instrLeft: instr,
				active:    true,
				base:      (gw * 517) % wsLines * uint64(s.dev.CacheLineBytes),
				rng:       k.Seed ^ (gw+1)*0xA24BAED4963EE407,
				blockSlot: int32(slot),
			}
		}
		sm.minReady = now
	}
	for slot := 0; slot < occ.BlocksPerSM && nextBlock < blocksTotal; slot++ {
		for i := 0; i < numSMs && nextBlock < blocksTotal; i++ {
			dispatch(i, slot, 0)
		}
	}

	var (
		now, warpInstrs, idleGap, bucketStart int64
		threadInstrs, bucketInstr             float64
		stopped                               bool
		traceBuf                              []IPCSample
	)
	tele := Telemetry{BlocksTotal: blocksTotal, WaveSize: wave}
	nSectors := int(k.CoalescingFactor + 0.5)
	if nSectors < 1 {
		nSectors = 1
	}

	for completed < blocksTotal && now < maxCycles {
		issuedCycle := 0
		for i := 0; i < numSMs; i++ {
			sm := &s.sms[i]
			if sm.resident == 0 || sm.minReady > now {
				continue
			}
			issueBudget := s.dev.SchedulersPerSM
			newMin := int64(math.MaxInt64)
			n := len(sm.warps)
			for scan := 0; scan < n; scan++ {
				idx := sm.rrPtr + scan
				if idx >= n {
					idx -= n
				}
				w := &sm.warps[idx]
				if !w.active {
					continue
				}
				if w.nextReady > now || issueBudget == 0 {
					if w.nextReady < newMin {
						newMin = w.nextReady
					}
					continue
				}
				issueBudget--
				issuedCycle++
				op := pattern[w.patPos]
				w.patPos++
				if int(w.patPos) == len(pattern) {
					w.patPos = 0
				}
				switch op {
				case opCompute:
					w.nextReady = now + int64(s.dev.ALULatencyCycles)
				case opTensor:
					w.nextReady = now + int64(s.dev.ALULatencyCycles)*2
				case opSharedLoad, opSharedStore:
					w.nextReady = now + int64(s.dev.SMemLatency)
				case opAtomic:
					w.nextReady = s.memAccess(i, w, now, 1, wsLines, false) + 16
				default:
					strided := w.nextFloat() < k.StridedFraction && op != opLocalLoad
					done := s.memAccess(i, w, now, nSectors, wsLines, strided)
					if op == opGlobalStore {
						w.nextReady = now + 1
					} else if w.pending <= now {
						w.pending = done
						w.nextReady = now + 1
					} else {
						w.nextReady = w.pending
						w.pending = done
					}
				}
				if w.nextReady < newMin {
					newMin = w.nextReady
				}
				w.instrLeft--
				if w.instrLeft == 0 {
					w.active = false
					sm.warpsLeft[w.blockSlot]--
					if sm.warpsLeft[w.blockSlot] == 0 {
						sm.resident--
						completed++
						if nextBlock < blocksTotal {
							dispatch(i, int(w.blockSlot), now)
							newMin = now
						}
					}
				}
			}
			sm.rrPtr++
			if sm.rrPtr >= n {
				sm.rrPtr = 0
			}
			if newMin == math.MaxInt64 {
				newMin = now + 1
			}
			sm.minReady = newMin
			warpInstrs += int64(s.dev.SchedulersPerSM - issueBudget)
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
			if opts.Controller != nil && opts.Controller.Tick(&tele) {
				stopped = true
				now++
				break
			}
			now++
		} else {
			next := int64(math.MaxInt64)
			for i := range s.sms {
				if sm := &s.sms[i]; sm.resident > 0 && sm.minReady < next {
					next = sm.minReady
				}
			}
			if next == math.MaxInt64 || next <= now {
				next = now + 1
			}
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

	res := &KernelResult{
		Kernel:             k,
		Cycles:             now,
		WarpInstrs:         warpInstrs,
		ExpectedWarpInstrs: k.TotalWarpInstructions(s.dev),
		ThreadInstrs:       threadInstrs,
		L2MissRate:         s.l2.MissRate(),
		DRAMUtil:           s.dram.Utilization(now),
		BlocksCompleted:    completed,
		BlocksTotal:        blocksTotal,
		WaveSize:           wave,
		StoppedEarly:       stopped || completed < blocksTotal,
		Trace:              traceBuf,
	}
	if now > 0 {
		res.IPC = threadInstrs / float64(now)
	}
	return res, nil
}

// memAccess is the pre-runCtx memory path: divisions and modulo where the
// simulator now shifts and masks.
func (s *refSim) memAccess(smIdx int, w *refWarp, now int64, nSectors int, wsLines uint64, strided bool) int64 {
	line := uint64(s.dev.CacheLineBytes)
	done := now
	if strided {
		startSector := w.base/sectorBytes + w.cursor
		w.cursor += uint64(nSectors)
		perLine := line / sectorBytes
		for l := startSector / perLine; l <= (startSector+uint64(nSectors)-1)/perLine; l++ {
			done = max(done, s.lineAccess(smIdx, l%wsLines*line, now, s.dev.CacheLineBytes))
		}
		return done
	}
	for i := 0; i < nSectors; i++ {
		done = max(done, s.lineAccess(smIdx, w.nextUint()%wsLines*line, now, sectorBytes))
	}
	return done
}

func (s *refSim) lineAccess(smIdx int, addr uint64, now int64, fillBytes int) int64 {
	if s.l1[smIdx].Access(addr) {
		return now + int64(s.dev.L1LatencyCycles)
	}
	if s.l2.Access(addr) {
		return now + int64(s.dev.L2LatencyCycles)
	}
	return s.dram.Request(now+int64(s.dev.L2LatencyCycles), fillBytes)
}

func (w *refWarp) nextUint() uint64 {
	w.rng ^= w.rng << 13
	w.rng ^= w.rng >> 7
	w.rng ^= w.rng << 17
	return w.rng
}

func (w *refWarp) nextFloat() float64 { return float64(w.nextUint()>>11) / (1 << 53) }

// The reference must be the reference: it reproduces every pinned hash.
func TestRefSimGoldenHashes(t *testing.T) {
	for _, tc := range goldenCases() {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.hash(t, newRefSim(tc.dev).run); got != tc.want {
				t.Errorf("refSim hash = %#016x, want %#016x", got, tc.want)
			}
		})
	}
}

// SameResult compares every field of two results, floats by their bits.
// Exported for the external probe test.
func SameResult(a, b *KernelResult) error {
	bits := math.Float64bits
	switch {
	case a.Kernel != b.Kernel:
		return fmt.Errorf("Kernel %p vs %p", a.Kernel, b.Kernel)
	case a.Cycles != b.Cycles:
		return fmt.Errorf("Cycles %d vs %d", a.Cycles, b.Cycles)
	case a.WarpInstrs != b.WarpInstrs:
		return fmt.Errorf("WarpInstrs %d vs %d", a.WarpInstrs, b.WarpInstrs)
	case a.ExpectedWarpInstrs != b.ExpectedWarpInstrs:
		return fmt.Errorf("ExpectedWarpInstrs %d vs %d", a.ExpectedWarpInstrs, b.ExpectedWarpInstrs)
	case bits(a.ThreadInstrs) != bits(b.ThreadInstrs):
		return fmt.Errorf("ThreadInstrs %v vs %v", a.ThreadInstrs, b.ThreadInstrs)
	case bits(a.IPC) != bits(b.IPC):
		return fmt.Errorf("IPC %v vs %v", a.IPC, b.IPC)
	case bits(a.L2MissRate) != bits(b.L2MissRate):
		return fmt.Errorf("L2MissRate %v vs %v", a.L2MissRate, b.L2MissRate)
	case bits(a.DRAMUtil) != bits(b.DRAMUtil):
		return fmt.Errorf("DRAMUtil %v vs %v", a.DRAMUtil, b.DRAMUtil)
	case a.BlocksCompleted != b.BlocksCompleted:
		return fmt.Errorf("BlocksCompleted %d vs %d", a.BlocksCompleted, b.BlocksCompleted)
	case a.BlocksTotal != b.BlocksTotal || a.WaveSize != b.WaveSize:
		return fmt.Errorf("shape %d/%d vs %d/%d", a.BlocksTotal, a.WaveSize, b.BlocksTotal, b.WaveSize)
	case a.StoppedEarly != b.StoppedEarly:
		return fmt.Errorf("StoppedEarly %v vs %v", a.StoppedEarly, b.StoppedEarly)
	case len(a.Trace) != len(b.Trace):
		return fmt.Errorf("trace length %d vs %d", len(a.Trace), len(b.Trace))
	}
	for i := range a.Trace {
		x, y := a.Trace[i], b.Trace[i]
		if x.Cycle != y.Cycle || bits(x.IPC) != bits(y.IPC) || bits(x.L2Miss) != bits(y.L2Miss) || bits(x.DRAMUtil) != bits(y.DRAMUtil) {
			return fmt.Errorf("trace sample %d: %+v vs %+v", i, x, y)
		}
	}
	return nil
}

// sameTick compares every Telemetry field, floats by their bits.
func sameTick(a, b *Telemetry) bool {
	bits := math.Float64bits
	return a.Cycle == b.Cycle && a.IdleGap == b.IdleGap &&
		bits(a.ThreadInstrs) == bits(b.ThreadInstrs) && a.WarpInstrs == b.WarpInstrs &&
		bits(a.IssuedThisCycle) == bits(b.IssuedThisCycle) && a.BlocksCompleted == b.BlocksCompleted &&
		a.BlocksTotal == b.BlocksTotal && a.WaveSize == b.WaveSize
}

// firstDivergence returns "" when the two tick streams are equal and
// otherwise names the first tick that differs and the cycle it fell on.
func firstDivergence(got, want []Telemetry) string {
	for i := 0; i < len(got) && i < len(want); i++ {
		if !sameTick(&got[i], &want[i]) {
			return fmt.Sprintf("tick %d diverges at cycle %d:\n  sim %+v\n  ref %+v", i, min(got[i].Cycle, want[i].Cycle), got[i], want[i])
		}
	}
	switch {
	case len(got) > len(want):
		return fmt.Sprintf("sim ticks on past the reference's last tick, first extra at cycle %d (tick %d)", got[len(want)].Cycle, len(want))
	case len(got) < len(want):
		return fmt.Sprintf("sim stops ticking before the reference, which ticks at cycle %d (tick %d)", want[len(got)].Cycle, len(got))
	}
	return ""
}

// refKernels draws seeded kernels for dev over every instruction class, at
// sub-wave, one-wave and multi-wave grids, with block shapes from one warp
// to the device's full warp budget.
func refKernels(rng *rand.Rand, dev gpu.Device) []trace.KernelDesc {
	var ks []trace.KernelDesc
	for _, waves := range []float64{0.3, 1, 2.2} {
		k := trace.KernelDesc{
			Block:         trace.D1(32*(1+rng.Intn(8)) - rng.Intn(2)*7),
			RegsPerThread: 32 + 32*rng.Intn(4),
			Mix: trace.InstrMix{
				Compute:       20 + rng.Intn(200),
				GlobalLoads:   rng.Intn(24),
				GlobalStores:  rng.Intn(4),
				LocalLoads:    rng.Intn(3),
				SharedLoads:   rng.Intn(6),
				SharedStores:  rng.Intn(3),
				GlobalAtomics: rng.Intn(2),
				TensorOps:     rng.Intn(4),
			},
			CoalescingFactor: 1 + 7*rng.Float64(),
			WorkingSetBytes:  int64(1+rng.Intn(64))<<20 + int64(rng.Intn(2))*128*37,
			StridedFraction:  rng.Float64(),
			DivergenceEff:    0.6 + 0.4*rng.Float64(),
			BlockImbalance:   float64(rng.Intn(2)) * rng.Float64(),
			Seed:             rng.Uint64(),
		}
		wave := dev.ComputeOccupancy(k.Resources()).BlocksPerSM * dev.NumSMs
		k.Grid = trace.D1(max(1, int(waves*float64(wave))))
		k.Name = fmt.Sprintf("ref-%.1fw-%d", waves, k.Grid.X)
		ks = append(ks, k)
	}
	return ks
}

// TestSimMatchesReference holds RunKernel to refSim tick by tick: seeded
// kernels run back to back on one Simulator and one refSim per device (so
// warm caches carry over on both), under a recording controller that may
// stop the run, a cycle cap, or neither, with and without trace buckets.
// Devices span one- to three-word due sets (30, 46, 80, 130 SMs) and the
// two-word warp sets of a 128-warp SM.
func TestSimMatchesReference(t *testing.T) {
	devs := []gpu.Device{gpu.VoltaV100(), gpu.TuringRTX2060(), gpu.AmpereRTX3070(), gpu.VoltaV100().WithSMs(130), WideSM()}
	rng := rand.New(rand.NewSource(25))
	ticks, jumps, stops, caps := 0, 0, 0, 0
	for _, dev := range devs {
		s, ref := New(dev), newRefSim(dev)
		var ks []trace.KernelDesc
		for round := 0; round < 4; round++ {
			ks = append(ks, refKernels(rng, dev)...)
		}
		for i, k := range ks {
			k := k
			var opts Options
			stopAt := int64(-1)
			switch i % 3 {
			case 1:
				stopAt = k.TotalWarpInstructions(dev) / int64(2+rng.Intn(4))
			case 2:
				opts.MaxCycles = int64(500 + rng.Intn(4000))
			}
			if rng.Intn(2) == 0 {
				opts.TraceEvery = int64(50 + rng.Intn(200))
			}
			var got, want []Telemetry
			record := func(log *[]Telemetry) Controller {
				return ControllerFunc(func(tl *Telemetry) bool {
					*log = append(*log, *tl)
					return stopAt >= 0 && tl.WarpInstrs >= stopAt
				})
			}
			opts.Controller = record(&got)
			res, err := s.RunKernel(&k, opts)
			if err != nil {
				t.Fatal(err)
			}
			opts.Controller = record(&want)
			wantRes, err := ref.run(&k, opts)
			if err != nil {
				t.Fatal(err)
			}
			if d := firstDivergence(got, want); d != "" {
				t.Fatalf("%s on %s (stop at %d warp instrs, cap %d, trace every %d): %s", k.Name, dev.Name, stopAt, opts.MaxCycles, opts.TraceEvery, d)
			}
			if err := SameResult(res, wantRes); err != nil {
				t.Fatalf("%s on %s: result after %d equal ticks: %v", k.Name, dev.Name, len(got), err)
			}
			ticks += len(got)
			for _, tl := range got {
				if tl.IdleGap > 0 {
					jumps++
				}
			}
			if res.BlocksCompleted < res.BlocksTotal {
				if stopAt >= 0 {
					stops++
				} else {
					caps++
				}
			}
		}
	}
	// The generator must reach what the loop can get wrong: idle jumps, and
	// runs cut short by a controller and by a cap.
	t.Logf("%d ticks compared: %d after an idle jump, %d runs stopped, %d capped", ticks, jumps, stops, caps)
	if jumps < 100 || stops < 4 || caps < 4 {
		t.Errorf("only %d idle jumps, %d stopped and %d capped runs: the generator misses what this test is for", jumps, stops, caps)
	}
}
