// Package mem models the GPU memory system used by the cycle-level
// simulator: set-associative LRU caches for L1/L2 and a latency+bandwidth
// DRAM channel. The models are deliberately structural — real tag arrays
// and a real bandwidth bottleneck — because Principal Kernel Projection's
// stability signal depends on memory contention emerging rather than being
// scripted.
package mem

// Cache is a set-associative cache with true-LRU replacement and
// write-allocate policy. It tracks hit/miss counts for miss-rate telemetry.
//
// Recency is positional: each set's ways are kept most-recently-used
// first, so the state is one word per way and there is no timestamp, no
// valid bit and no victim search — the victim is whatever falls off the
// tail. Flush only ever invalidates the whole cache, so invalid ways
// always form the tail of a set; dropping the tail therefore fills the
// invalid ways before it evicts the least recently used line.
type Cache struct {
	ways      int
	numSets   int
	setMask   uint64 // numSets-1 when numSets is a power of two, else 0
	lineShift uint
	// lines[set*ways+i] is the set's i-th most recent line number plus one;
	// 0 marks an invalid way. (The +1 wraps only for the all-ones address
	// of a 1-byte-line cache.)
	lines []uint64

	hits, misses int64
}

// NewCache builds a cache of sizeBytes organized as ways-associative with
// the given line size. Size is rounded down to a whole number of sets; the
// cache always has at least one set. Line size must be a power of two.
func NewCache(sizeBytes, ways, lineBytes int) *Cache {
	if ways < 1 {
		ways = 1
	}
	if lineBytes < 1 || lineBytes&(lineBytes-1) != 0 {
		panic("mem: line size must be a positive power of two")
	}
	numSets := sizeBytes / (ways * lineBytes)
	if numSets < 1 {
		numSets = 1
	}
	shift := uint(0)
	for 1<<shift != lineBytes {
		shift++
	}
	c := &Cache{
		ways:      ways,
		numSets:   numSets,
		lineShift: shift,
		lines:     make([]uint64, numSets*ways),
	}
	if numSets&(numSets-1) == 0 {
		c.setMask = uint64(numSets - 1)
	}
	return c
}

// Access looks up addr, allocating the line on a miss (for both reads and
// writes), and reports whether it hit. One pass does everything: each way
// takes its more recent neighbour's line as the scan goes by, so stopping
// at a match has rotated the line to the front, and running off the end
// has inserted it at the front and dropped the tail.
func (c *Cache) Access(addr uint64) bool {
	line := addr >> c.lineShift
	var set int
	if c.setMask != 0 {
		set = int(line & c.setMask)
	} else {
		set = int(line % uint64(c.numSets))
	}
	base := set * c.ways
	key := line + 1
	prev := key
	ways := c.lines[base : base+c.ways]
	for i, cur := range ways {
		ways[i] = prev
		if cur == key {
			c.hits++
			return true
		}
		prev = cur
	}
	c.misses++
	return false
}

// Hits returns the cumulative hit count.
func (c *Cache) Hits() int64 { return c.hits }

// Misses returns the cumulative miss count.
func (c *Cache) Misses() int64 { return c.misses }

// MissRate returns misses / accesses, or 0 before any access.
func (c *Cache) MissRate() float64 {
	total := c.hits + c.misses
	if total == 0 {
		return 0
	}
	return float64(c.misses) / float64(total)
}

// ResetStats zeroes the hit/miss counters without flushing cache contents,
// so per-kernel telemetry can be isolated while warmed state persists.
func (c *Cache) ResetStats() { c.hits, c.misses = 0, 0 }

// Flush invalidates every line and clears statistics.
func (c *Cache) Flush() {
	clear(c.lines)
	c.ResetStats()
}
