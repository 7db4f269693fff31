package pks

import (
	"math"
	"slices"
	"sort"

	"pka/internal/profiler"
	"pka/internal/trace"
)

// Pool is every segment's detailed prefix, segment-major and chronological
// within each: (segment, launch) order, which first-chronological election
// relies on. A scaled workload launches a few dozen distinct kernels
// thousands of times, so the pool stores each distinct record once, as a
// kind, and per launch only the launch's kind: two launches share a kind when
// every DetailedRecord field but KernelID is bit-equal and so is their
// SharedMemPerBlock. A launch's KernelID is its position in its segment, as
// Workload.Kernel stamps it, so it is not stored either.
type Pool struct {
	kinds     []profiler.DetailedRecord // first-seen order, KernelID unset
	sharedMem []int                     // each kind's SharedMemPerBlock
	ids       map[kindKey]int32
	kindOf    []int32 // per launch
	ends      []int   // ends[s] is one past segment s's last launch
}

// kindKey is a record's identity in the pool: every field but KernelID, the
// floats by their bits.
type kindKey struct {
	name        string
	grid, block trace.Dim3
	features    [trace.NumFeatures]uint64
	cycles      int64
	time, dram  uint64
	l2Miss      uint64
	sharedMem   int
}

// newPool returns an empty pool with room for n launches.
func newPool(n int) *Pool {
	return &Pool{ids: map[kindKey]int32{}, kindOf: make([]int32, 0, n)}
}

// add appends one launch of the current segment. rec's Features is copied
// only when the launch is of a new kind, so the caller may reuse it.
func (p *Pool) add(rec profiler.DetailedRecord, sharedMem int) {
	key := kindKey{
		name: rec.Name, grid: rec.Grid, block: rec.Block, cycles: rec.Cycles,
		time: math.Float64bits(rec.TimeSeconds), dram: math.Float64bits(rec.DRAMUtil),
		l2Miss: math.Float64bits(rec.L2MissRate), sharedMem: sharedMem,
	}
	for j, v := range rec.Features {
		key.features[j] = math.Float64bits(v)
	}
	kind, ok := p.ids[key]
	if !ok {
		kind = int32(len(p.kinds))
		p.ids[key] = kind
		rec.KernelID, rec.Features = 0, slices.Clone(rec.Features)
		p.kinds = append(p.kinds, rec)
		p.sharedMem = append(p.sharedMem, sharedMem)
	}
	p.kindOf = append(p.kindOf, kind)
}

// endSegment closes the current segment after its last launch.
func (p *Pool) endSegment() { p.ends = append(p.ends, p.Len()) }

// Len returns the number of launches pooled.
func (p *Pool) Len() int { return len(p.kindOf) }

// Ends returns, for each segment, one past its last launch.
func (p *Pool) Ends() []int { return p.ends }

// Cycles returns launch i's silicon cycles.
func (p *Pool) Cycles(i int) int64 { return p.kinds[p.kindOf[i]].Cycles }

// kind returns launch i's record, shared with every launch of its kind and
// without its KernelID.
func (p *Pool) kind(i int) *profiler.DetailedRecord { return &p.kinds[p.kindOf[i]] }

// record rebuilds launch i's full detailed record.
func (p *Pool) record(i int) profiler.DetailedRecord {
	start := 0
	if s := sort.SearchInts(p.ends, i+1); s > 0 {
		start = p.ends[s-1]
	}
	rec := *p.kind(i)
	rec.KernelID = i - start
	return rec
}
