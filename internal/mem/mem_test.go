package mem

import (
	"testing"
	"testing/quick"

	"pka/internal/stats"
)

func TestCacheColdMissThenHit(t *testing.T) {
	c := NewCache(1024, 4, 64)
	if c.Access(0x1000) {
		t.Error("cold access hit")
	}
	if !c.Access(0x1000) {
		t.Error("second access missed")
	}
	if !c.Access(0x1030) { // same 64-byte line
		t.Error("same-line access missed")
	}
	if c.Access(0x1040) { // next line
		t.Error("next-line access hit cold")
	}
	if c.Hits() != 2 || c.Misses() != 2 {
		t.Errorf("hits=%d misses=%d", c.Hits(), c.Misses())
	}
	if c.MissRate() != 0.5 {
		t.Errorf("miss rate = %v", c.MissRate())
	}
}

func TestCacheLRUEviction(t *testing.T) {
	// Direct-mapped, 2 sets of 64B: addresses 0 and 128 collide in set 0.
	c := NewCache(128, 1, 64)
	c.Access(0)
	c.Access(128) // evicts 0
	if c.Access(0) {
		t.Error("evicted line still resident")
	}
	// 2-way: both fit.
	c2 := NewCache(256, 2, 64)
	c2.Access(0)
	c2.Access(256)
	if !c2.Access(0) || !c2.Access(256) {
		t.Error("2-way set should retain both conflicting lines")
	}
	// Touch 0 to make 256 the LRU victim, then insert a third conflicting line.
	c2.Access(0)
	c2.Access(512)
	if !c2.Access(0) {
		t.Error("MRU line was evicted")
	}
	if c2.Access(256) {
		t.Error("LRU line was retained over MRU")
	}
}

func TestCacheWorkingSetBehaviour(t *testing.T) {
	// Working set smaller than cache: near-zero steady-state miss rate.
	c := NewCache(64*1024, 8, 128)
	for pass := 0; pass < 4; pass++ {
		for addr := uint64(0); addr < 32*1024; addr += 128 {
			c.Access(addr)
		}
	}
	if c.MissRate() > 0.3 {
		t.Errorf("small working set miss rate = %v", c.MissRate())
	}
	// Streaming working set much larger than cache: high miss rate.
	c2 := NewCache(8*1024, 8, 128)
	for addr := uint64(0); addr < 4*1024*1024; addr += 128 {
		c2.Access(addr)
	}
	if c2.MissRate() < 0.99 {
		t.Errorf("streaming miss rate = %v", c2.MissRate())
	}
}

func TestCacheResetAndFlush(t *testing.T) {
	c := NewCache(1024, 2, 64)
	c.Access(0)
	c.ResetStats()
	if c.Hits()+c.Misses() != 0 {
		t.Error("ResetStats left counters")
	}
	if !c.Access(0) {
		t.Error("ResetStats flushed contents")
	}
	c.Flush()
	if c.Access(0) {
		t.Error("Flush retained contents")
	}
	if c.MissRate() != 1 {
		t.Errorf("post-flush miss rate = %v", c.MissRate())
	}
}

func TestNewCachePanicsOnBadLine(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("non-power-of-two line accepted")
		}
	}()
	NewCache(1024, 2, 96)
}

func TestCacheTinySizeStillWorks(t *testing.T) {
	c := NewCache(16, 4, 128) // smaller than one set: clamps to 1 set
	c.Access(0)
	if !c.Access(0) {
		t.Error("single-set cache broken")
	}
}

// Property: hit rate of a repeated scan over N distinct lines is 100% after
// warmup iff N fits in the cache; conflict-free because N <= ways*sets and
// addresses are consecutive lines.
func TestCacheResidencyProperty(t *testing.T) {
	f := func(linesRaw uint8) bool {
		ways, sets, lineB := 4, 16, 64
		c := NewCache(ways*sets*lineB, ways, lineB)
		n := int(linesRaw%uint8(ways*sets)) + 1
		for i := 0; i < n; i++ { // warm
			c.Access(uint64(i * lineB))
		}
		c.ResetStats()
		for pass := 0; pass < 3; pass++ {
			for i := 0; i < n; i++ {
				c.Access(uint64(i * lineB))
			}
		}
		return c.MissRate() == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDRAMLatencyOnly(t *testing.T) {
	d := NewDRAM(64, 100)
	done := d.Request(0, 32)
	if done != 1+100 {
		t.Errorf("done = %d, want 101", done)
	}
	if d.BytesMoved() != 32 || d.Requests() != 1 {
		t.Error("counters wrong")
	}
}

func TestDRAMBandwidthQueueing(t *testing.T) {
	d := NewDRAM(32, 10) // one 32-byte sector per cycle
	// Issue 100 sector requests at cycle 0: the pipe serializes them.
	var last int64
	for i := 0; i < 100; i++ {
		last = d.Request(0, 32)
	}
	if last != 100+10 {
		t.Errorf("last completion = %d, want 110", last)
	}
	if u := d.Utilization(100); u < 0.99 {
		t.Errorf("utilization = %v, want ~1", u)
	}
}

func TestDRAMIdleGaps(t *testing.T) {
	d := NewDRAM(32, 0)
	d.Request(0, 32)
	d.Request(1000, 32)
	if u := d.Utilization(2000); u < 0.0009 || u > 0.0011 {
		t.Errorf("utilization = %v, want ~0.001", u)
	}
	if d.Utilization(0) != 0 {
		t.Error("zero elapsed should report 0")
	}
}

func TestDRAMZeroBytes(t *testing.T) {
	d := NewDRAM(10, 50)
	if done := d.Request(7, 0); done != 57 {
		t.Errorf("zero-byte request done = %d", done)
	}
	if d.Requests() != 0 {
		t.Error("zero-byte request counted")
	}
}

func TestDRAMResetStats(t *testing.T) {
	d := NewDRAM(10, 5)
	d.Request(0, 100)
	d.ResetStats()
	if d.BytesMoved() != 0 || d.Requests() != 0 || d.Utilization(100) != 0 {
		t.Error("ResetStats incomplete")
	}
	// Schedule persists: the next request queues behind the previous one.
	if done := d.Request(0, 10); done <= 5 {
		t.Errorf("pipe schedule was reset: done = %d", done)
	}
}

func TestDRAMPanicsOnBadBandwidth(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("non-positive bandwidth accepted")
		}
	}()
	NewDRAM(0, 1)
}

// Property: completion times are monotonically non-decreasing for requests
// issued in time order, and utilization is always within [0, 1].
func TestDRAMMonotoneProperty(t *testing.T) {
	f := func(seed uint32) bool {
		rng := stats.NewRNG(uint64(seed))
		d := NewDRAM(16, 20)
		var now, prevDone int64
		for i := 0; i < 200; i++ {
			now += int64(rng.Intn(5))
			done := d.Request(now, 32*(1+rng.Intn(4)))
			if done < prevDone {
				return false
			}
			prevDone = done
		}
		u := d.Utilization(now + 1)
		return u >= 0 && u <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
