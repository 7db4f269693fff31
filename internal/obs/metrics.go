// Metrics: a zero-dependency registry of atomic counters, gauges, and
// fixed-bucket histograms with Prometheus text exposition. All instrument operations are lock-free atomics and nil-safe
// (operating on a nil instrument is a no-op), so instrumented code never
// needs to guard on whether telemetry is enabled.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing integer metric.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add increments the counter by n. Negative deltas are ignored to keep the
// counter monotone.
func (c *Counter) Add(n int64) {
	if c == nil || n < 0 {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous float64 value that can move both ways.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add moves the gauge by delta (CAS loop; safe for concurrent adders).
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Value returns the current gauge reading.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket histogram with Prometheus `le` semantics:
// bucket i counts observations v with v <= bounds[i] (and, for i > 0,
// v > bounds[i-1]); observations above the last bound land in the implicit
// +Inf bucket.
type Histogram struct {
	bounds  []float64
	buckets []atomic.Int64 // len(bounds)+1; last is +Inf
	count   atomic.Int64
	sumBits atomic.Uint64
}

func newHistogram(bounds []float64) *Histogram {
	bs := append([]float64(nil), bounds...)
	sort.Float64s(bs)
	return &Histogram{bounds: bs, buckets: make([]atomic.Int64, len(bs)+1)}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// First bound >= v; equal-to-bound observations are inclusive upper.
	i := sort.SearchFloat64s(h.bounds, v)
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// BucketCount returns the non-cumulative count of bucket i, where
// i == len(bounds) addresses the +Inf bucket.
func (h *Histogram) BucketCount(i int) int64 {
	if h == nil || i < 0 || i >= len(h.buckets) {
		return 0
	}
	return h.buckets[i].Load()
}

type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

type metric struct {
	name string
	help string
	kind metricKind

	counter *Counter
	gauge   *Gauge
	hist    *Histogram
}

// Registry holds named metrics. Registration is idempotent: asking for an
// existing name of the same kind returns the existing instrument; a kind
// mismatch panics (a programming error, not a runtime condition). A nil
// *Registry is inert: every constructor returns nil, every writer writes
// nothing.
type Registry struct {
	mu     sync.Mutex
	byName map[string]*metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: map[string]*metric{}}
}

func (r *Registry) lookup(name, help string, kind metricKind, bounds []float64) *metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.byName[name]; ok {
		if m.kind != kind {
			panic(fmt.Sprintf("obs: metric %q re-registered with a different kind", name))
		}
		return m
	}
	m := &metric{name: name, help: help, kind: kind}
	switch kind {
	case kindCounter:
		m.counter = &Counter{}
	case kindGauge:
		m.gauge = &Gauge{}
	case kindHistogram:
		m.hist = newHistogram(bounds)
	}
	r.byName[name] = m
	return m
}

// Counter registers (or fetches) a counter.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, kindCounter, nil).counter
}

// Gauge registers (or fetches) a gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, kindGauge, nil).gauge
}

// Histogram registers (or fetches) a histogram with the given upper bounds
// (the +Inf bucket is implicit). Bounds are only applied on first
// registration.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, kindHistogram, bounds).hist
}

func (r *Registry) sorted() []*metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	ms := make([]*metric, 0, len(r.byName))
	for _, m := range r.byName {
		ms = append(ms, m)
	}
	sort.Slice(ms, func(i, j int) bool { return ms[i].name < ms[j].name })
	return ms
}

// fmtFloat renders a float the way the Prometheus text format expects:
// shortest round-trip representation, +Inf spelled "+Inf".
func fmtFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus renders the registry in the Prometheus text exposition
// format (version 0.0.4), families sorted by metric name.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	for _, m := range r.sorted() {
		typ := map[metricKind]string{kindCounter: "counter", kindGauge: "gauge", kindHistogram: "histogram"}[m.kind]
		if m.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", m.name, m.help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", m.name, typ); err != nil {
			return err
		}
		var err error
		switch m.kind {
		case kindCounter:
			_, err = fmt.Fprintf(w, "%s %d\n", m.name, m.counter.Value())
		case kindGauge:
			_, err = fmt.Fprintf(w, "%s %s\n", m.name, fmtFloat(m.gauge.Value()))
		case kindHistogram:
			h := m.hist
			var cum int64
			for i, b := range h.bounds {
				cum += h.BucketCount(i)
				if _, err = fmt.Fprintf(w, "%s_bucket{le=\"%s\"} %d\n", m.name, fmtFloat(b), cum); err != nil {
					return err
				}
			}
			cum += h.BucketCount(len(h.bounds))
			if _, err = fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", m.name, cum); err != nil {
				return err
			}
			if _, err = fmt.Fprintf(w, "%s_sum %s\n", m.name, fmtFloat(h.Sum())); err != nil {
				return err
			}
			_, err = fmt.Fprintf(w, "%s_count %d\n", m.name, h.Count())
		}
		if err != nil {
			return err
		}
	}
	return nil
}
