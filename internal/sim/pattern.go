package sim

import (
	"sync"

	"pka/internal/trace"
)

// A kernel's instruction pattern depends only on its instruction mix and
// its seed, and a study simulates the same few representative kernels
// thousands of times (once per PKS group per configuration, plus every
// ablation variant). Building the pattern — an O(mix total) fill plus a
// Fisher-Yates shuffle — on every launch was pure rework, so patterns are
// memoized process-wide, keyed on exactly the fields that determine them.
//
// The cached slice is shared between concurrent simulators; that is safe
// because the cycle loop only ever reads it. Two concurrent first launches
// of one kernel may both build its pattern; the builds are identical and
// the first to finish is the one kept.
type patternKey struct {
	mix  trace.InstrMix
	seed uint64
}

// patternCacheCap bounds the memo's entry count. A long-lived pkaserve or
// pkad fed inline workloads sees an unbounded stream of distinct (mix,
// seed) pairs, each pinning a Mix.Total()-byte slice; when the table is
// full it is dropped whole, which costs the live kernels one rebuild each
// and cannot change a result because a pattern is a pure function of its
// key.
const patternCacheCap = 4096

var patternCache struct {
	sync.Mutex
	m map[patternKey][]uint8
}

// patternFor returns the (shared, read-only) instruction pattern for k.
func patternFor(k *trace.KernelDesc) []uint8 {
	key := patternKey{mix: k.Mix, seed: k.Seed}
	patternCache.Lock()
	p, ok := patternCache.m[key]
	patternCache.Unlock()
	if ok {
		return p
	}
	p = buildPattern(k)
	patternCache.Lock()
	defer patternCache.Unlock()
	if q, ok := patternCache.m[key]; ok {
		return q
	}
	if patternCache.m == nil || len(patternCache.m) >= patternCacheCap {
		patternCache.m = make(map[patternKey][]uint8)
	}
	patternCache.m[key] = p
	return p
}
