package sim

import (
	"sync"
	"testing"

	"pka/internal/gpu"
	"pka/internal/trace"
)

func patternKernel(seed uint64, mix trace.InstrMix) trace.KernelDesc {
	return trace.KernelDesc{
		Name: "pat", Grid: trace.D1(16), Block: trace.D1(128),
		Mix: mix, CoalescingFactor: 4, WorkingSetBytes: 1 << 20,
		StridedFraction: 0.5, DivergenceEff: 1, Seed: seed,
	}
}

// TestPatternCacheSharing verifies that two kernels with the same (mix,
// seed) receive the same backing pattern slice — built once, shared
// read-only — and that the shared pattern matches a fresh build.
func TestPatternCacheSharing(t *testing.T) {
	mix := trace.InstrMix{Compute: 30, GlobalLoads: 7, SharedLoads: 5}
	k1 := patternKernel(42, mix)
	k2 := patternKernel(42, mix)
	k2.Name = "other-name"
	k2.Grid = trace.D1(99) // launch geometry must not affect the pattern

	p1 := patternFor(&k1)
	p2 := patternFor(&k2)
	if len(p1) == 0 || &p1[0] != &p2[0] {
		t.Fatalf("same (mix, seed) did not share one cached pattern")
	}
	fresh := buildPattern(&k1)
	if len(fresh) != len(p1) {
		t.Fatalf("cached pattern length %d, fresh build %d", len(p1), len(fresh))
	}
	for i := range fresh {
		if fresh[i] != p1[i] {
			t.Fatalf("cached pattern diverges from fresh build at %d", i)
		}
	}
}

// TestPatternCacheKeying verifies that differing seeds or mixes do not
// alias to the same cache entry.
func TestPatternCacheKeying(t *testing.T) {
	mix := trace.InstrMix{Compute: 30, GlobalLoads: 7, SharedLoads: 5}
	base := patternKernel(1, mix)
	otherSeed := patternKernel(2, mix)
	otherMix := patternKernel(1, trace.InstrMix{Compute: 30, GlobalLoads: 7, SharedStores: 5})

	p := patternFor(&base)
	if q := patternFor(&otherSeed); len(q) == len(p) && &q[0] == &p[0] {
		t.Fatalf("different seeds aliased to one cached pattern")
	}
	if q := patternFor(&otherMix); len(q) == len(p) && &q[0] == &p[0] {
		t.Fatalf("different mixes aliased to one cached pattern")
	}
	// Same seed, different mix order of the same total must also differ in
	// content, not just identity (sanity check on the key fields).
	if q := patternFor(&otherSeed); equalPatterns(p, q) {
		t.Fatalf("seed change produced an identical shuffle; key too weak?")
	}
}

func equalPatterns(a, b []uint8) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestPatternCacheConcurrentSims runs many simulators over a handful of
// kernels sharing cached patterns; under -race this proves the shared
// slice is read-only in the cycle loop and the cache is safe for
// concurrent first launches.
func TestPatternCacheConcurrentSims(t *testing.T) {
	mixes := []trace.InstrMix{
		{Compute: 20, GlobalLoads: 5},
		{Compute: 10, GlobalLoads: 2, SharedLoads: 3, GlobalStores: 1},
	}
	var wg sync.WaitGroup
	results := make([]int64, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			s := New(gpu.VoltaV100())
			k := patternKernel(uint64(1000+g%2), mixes[g%2])
			res, err := s.RunKernel(&k, Options{})
			if err != nil {
				t.Error(err)
				return
			}
			results[g] = res.Cycles
		}(g)
	}
	wg.Wait()
	// Goroutines with identical kernels must agree exactly.
	for g := 2; g < 8; g++ {
		if results[g] != results[g-2] {
			t.Fatalf("concurrent identical sims diverged: cycles[%d]=%d cycles[%d]=%d",
				g, results[g], g-2, results[g-2])
		}
	}
}

// TestPatternCacheBounded feeds the memo more distinct keys than it may
// hold: the entry count never exceeds the cap, the table is dropped when
// full, and a pattern rebuilt after the drop equals the evicted one.
func TestPatternCacheBounded(t *testing.T) {
	mix := trace.InstrMix{Compute: 9, GlobalLoads: 3, SharedStores: 2}
	first := patternKernel(1<<40, mix)
	before := append([]uint8(nil), patternFor(&first)...)
	for i := 1; i <= patternCacheCap+10; i++ {
		k := patternKernel(1<<40+uint64(i), mix)
		patternFor(&k)
		patternCache.Lock()
		n := len(patternCache.m)
		patternCache.Unlock()
		if n > patternCacheCap {
			t.Fatalf("pattern cache holds %d entries after %d inserts, cap is %d", n, i, patternCacheCap)
		}
	}
	patternCache.Lock()
	_, kept := patternCache.m[patternKey{mix: mix, seed: first.Seed}]
	patternCache.Unlock()
	if kept {
		t.Fatal("first key survived cap+10 distinct inserts; the table was never dropped")
	}
	if after := patternFor(&first); !equalPatterns(before, after) {
		t.Fatal("pattern rebuilt after eviction differs from the evicted one")
	}
}
