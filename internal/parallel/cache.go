package parallel

import "sync"

// Cache is a generic per-key memoization cache with singleflight
// semantics: when several goroutines ask for the same missing key, exactly
// one runs the compute function and the rest block until its result is
// ready. Successful results are memoized forever; failed computes are NOT
// cached, so a later call retries (concurrent callers of the failing
// flight still share its error). A panic inside compute is contained as a
// *PanicError and shared with the waiters like any other failure.
//
// The zero value is ready to use.
type Cache[K comparable, V any] struct {
	mu     sync.Mutex
	m      map[K]*flight[V]
	hits   uint64
	misses uint64
}

// flight is one in-progress or completed computation.
type flight[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// Do returns the cached value for key, computing it with compute on the
// first call. Concurrent calls for the same key coalesce into a single
// compute invocation.
func (c *Cache[K, V]) Do(key K, compute func() (V, error)) (V, error) {
	c.mu.Lock()
	if c.m == nil {
		c.m = map[K]*flight[V]{}
	}
	if f, ok := c.m[key]; ok {
		c.hits++
		c.mu.Unlock()
		<-f.done
		return f.val, f.err
	}
	f := &flight[V]{done: make(chan struct{})}
	c.m[key] = f
	c.misses++
	c.mu.Unlock()

	f.val, f.err = protect(compute)
	if f.err != nil {
		// Do not memoize failures: drop the entry so the next caller
		// retries, then release the waiters that joined this flight.
		c.mu.Lock()
		delete(c.m, key)
		c.mu.Unlock()
	}
	close(f.done)
	return f.val, f.err
}

// Get returns the memoized value for key without computing, and reports
// whether a completed successful entry exists.
func (c *Cache[K, V]) Get(key K) (V, bool) {
	v, ok, _ := c.Peek(key)
	return v, ok
}

// Peek is Get that also reports whether a compute for key is in flight
// (pending), without waiting for it or counting a hit or a miss.
func (c *Cache[K, V]) Peek(key K) (v V, ok, pending bool) {
	c.mu.Lock()
	f, found := c.m[key]
	c.mu.Unlock()
	if !found {
		return v, false, false
	}
	select {
	case <-f.done:
		return f.val, f.err == nil, false
	default:
		return v, false, true
	}
}

// Len returns the number of cached (or in-flight) keys.
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// Stats returns how many Do calls joined an existing entry (hits) and how
// many started a compute (misses). misses therefore counts compute
// invocations — the singleflight regression tests assert on it.
func (c *Cache[K, V]) Stats() (hits, misses uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}
