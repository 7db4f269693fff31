package mem

import (
	"fmt"
	"testing"

	"pka/internal/stats"
)

// refCache is the timestamp-LRU cache that Cache replaced, kept verbatim as
// the reference model: three parallel arrays, a global access clock, and a
// victim scan that prefers the first invalid way and otherwise the way with
// the oldest timestamp. The differential test below holds the positional
// (MRU-ordered) implementation to it access by access.
type refCache struct {
	ways, numSets int
	lineShift     uint
	tags          []uint64
	valid         []bool
	lru           []uint64
	clock         uint64
	hits, misses  int64
}

func newRefCache(c *Cache) *refCache {
	n := c.numSets * c.ways
	return &refCache{
		ways: c.ways, numSets: c.numSets, lineShift: c.lineShift,
		tags: make([]uint64, n), valid: make([]bool, n), lru: make([]uint64, n),
	}
}

func (c *refCache) access(addr uint64) bool {
	line := addr >> c.lineShift
	base := int(line%uint64(c.numSets)) * c.ways
	c.clock++
	firstInvalid, victim := -1, 0
	oldest := ^uint64(0)
	for w := 0; w < c.ways; w++ {
		if !c.valid[base+w] {
			if firstInvalid < 0 {
				firstInvalid = w
			}
			continue
		}
		if c.tags[base+w] == line {
			c.lru[base+w] = c.clock
			c.hits++
			return true
		}
		if c.lru[base+w] < oldest {
			oldest, victim = c.lru[base+w], w
		}
	}
	c.misses++
	if firstInvalid >= 0 {
		victim = firstInvalid
	}
	c.tags[base+victim], c.valid[base+victim], c.lru[base+victim] = line, true, c.clock
	return false
}

func (c *refCache) resetStats() { c.hits, c.misses = 0, 0 }

func (c *refCache) flush() {
	for i := range c.valid {
		c.valid[i] = false
	}
	c.clock = 0
	c.resetStats()
}

// TestCacheMatchesTimestampLRU drives Cache and the reference model with
// the same seeded address streams — a hot region that mostly hits, a wide
// one that mostly misses, and consecutive-line runs — with ResetStats and
// Flush landing mid-stream, and requires the same hit/miss verdict on
// every access and the same counters throughout. Shapes cover power-of-two
// and non-power-of-two set counts (V100's L2 is 3072 sets × 16 ways),
// direct-mapped sets, and a single fully associative set.
func TestCacheMatchesTimestampLRU(t *testing.T) {
	shapes := []struct{ sets, ways, lineB int }{
		{16, 4, 64},
		{128, 8, 128},   // an L1
		{3072, 16, 128}, // V100's L2: the modulo set index
		{7, 3, 32},
		{64, 1, 64}, // direct-mapped
		{5, 1, 128},
		{1, 16, 64}, // one fully associative set
	}
	for _, sh := range shapes {
		sh := sh
		t.Run(fmt.Sprintf("%dx%dx%d", sh.sets, sh.ways, sh.lineB), func(t *testing.T) {
			c := NewCache(sh.sets*sh.ways*sh.lineB, sh.ways, sh.lineB)
			if c.numSets != sh.sets || c.ways != sh.ways {
				t.Fatalf("built %d sets × %d ways", c.numSets, c.ways)
			}
			ref := newRefCache(c)
			rng := stats.NewRNG(uint64(sh.sets*131 + sh.ways))
			lines := sh.sets * sh.ways
			hot, wide := uint64(lines/2+1), uint64(lines*8)
			var run uint64
			const n = 60000
			for i := 0; i < n; i++ {
				switch {
				case i == n/3:
					c.ResetStats()
					ref.resetStats()
				case i == n/2 || i == n/2+1: // the second flushes an empty cache
					c.Flush()
					ref.flush()
				}
				var line uint64
				switch r := rng.Intn(10); {
				case r < 5:
					line = rng.Uint64() % hot
				case r < 8:
					line = rng.Uint64() % wide
				default:
					run++
					line = run
				}
				addr := line*uint64(sh.lineB) + rng.Uint64()%uint64(sh.lineB)
				if got, want := c.Access(addr), ref.access(addr); got != want {
					t.Fatalf("access %d (addr %#x): hit = %v, timestamp-LRU says %v", i, addr, got, want)
				}
				if c.Hits() != ref.hits || c.Misses() != ref.misses {
					t.Fatalf("access %d: counters %d/%d, timestamp-LRU has %d/%d",
						i, c.Hits(), c.Misses(), ref.hits, ref.misses)
				}
			}
			if ref.hits == 0 || ref.misses == 0 {
				t.Fatalf("stream exercised one outcome only: %d hits, %d misses", ref.hits, ref.misses)
			}
		})
	}
}

var sinkHits int

// BenchmarkCacheAccess times one Access on the three regimes the simulator
// puts a cache in: an L1 whose working set fits (hits near the front of the
// set), the same L1 streamed through (every access shifts a full set), and
// V100's L2 shape — 3072 sets × 16 ways, 384 KiB of tag state against the
// host's caches — under the random sector traffic an L1 miss stream is.
func BenchmarkCacheAccess(b *testing.B) {
	const lineB = 128
	addrs := func(n int, span uint64) []uint64 {
		rng := stats.NewRNG(7)
		a := make([]uint64, n)
		for i := range a {
			a[i] = rng.Uint64() % span * lineB
		}
		return a
	}
	cases := []struct {
		name       string
		sets, ways int
		stream     []uint64
	}{
		{"hit-heavy", 128, 8, addrs(1<<12, 512)},
		{"miss-heavy", 128, 8, addrs(1<<16, 1<<20)},
		{"l2-3072x16", 3072, 16, addrs(1<<18, 3072*16*2)},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			c := NewCache(tc.sets*tc.ways*lineB, tc.ways, lineB)
			for _, a := range tc.stream { // warm: no invalid ways in the timed part
				c.Access(a)
			}
			c.ResetStats()
			mask := len(tc.stream) - 1
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if c.Access(tc.stream[i&mask]) {
					sinkHits++
				}
			}
			b.ReportMetric(100*(1-c.MissRate()), "hit-%")
		})
	}
}
