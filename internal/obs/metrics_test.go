package obs

import (
	"bytes"
	"os"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterBasics(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	c.Add(-3) // ignored: counters are monotone
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
}

func TestGaugeBasics(t *testing.T) {
	var g Gauge
	g.Set(2.5)
	g.Add(-1)
	if got := g.Value(); got != 1.5 {
		t.Errorf("gauge = %v, want 1.5", got)
	}
}

// TestHistogramBucketEdges pins the Prometheus `le` semantics: bucket i is
// an inclusive upper bound, values above the last bound land in +Inf.
func TestHistogramBucketEdges(t *testing.T) {
	h := newHistogram([]float64{20, 10}) // unsorted on purpose
	if got := h.bounds; got[0] != 10 || got[1] != 20 {
		t.Fatalf("bounds not sorted: %v", got)
	}
	cases := []struct {
		v      float64
		bucket int
	}{
		{-5, 0},      // below everything
		{10, 0},      // exactly on a bound is inclusive
		{10.0001, 1}, // just above a bound spills to the next
		{20, 1},
		{20.0001, 2}, // above the last bound -> +Inf
	}
	for _, c := range cases {
		before := h.BucketCount(c.bucket)
		h.Observe(c.v)
		if got := h.BucketCount(c.bucket); got != before+1 {
			t.Errorf("Observe(%v): bucket %d count %d, want %d", c.v, c.bucket, got, before+1)
		}
	}
	if h.Count() != int64(len(cases)) {
		t.Errorf("count = %d, want %d", h.Count(), len(cases))
	}
	wantSum := -5 + 10 + 10.0001 + 20 + 20.0001
	if got := h.Sum(); got < wantSum-1e-9 || got > wantSum+1e-9 {
		t.Errorf("sum = %v, want %v", got, wantSum)
	}
}

// TestConcurrentInstruments hammers every instrument kind from many
// goroutines; run under -race this doubles as the data-race check.
func TestConcurrentInstruments(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "")
	g := r.Gauge("g", "")
	h := r.Histogram("h", "", []float64{100})
	const workers, perWorker = 8, 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(float64(i % 200))
			}
		}()
	}
	wg.Wait()
	const total = workers * perWorker
	if c.Value() != total {
		t.Errorf("counter = %d, want %d", c.Value(), total)
	}
	if g.Value() != total {
		t.Errorf("gauge = %v, want %d", g.Value(), total)
	}
	if h.Count() != total {
		t.Errorf("histogram count = %d, want %d", h.Count(), total)
	}
	if lo, hi := h.BucketCount(0), h.BucketCount(1); lo+hi != total {
		t.Errorf("bucket counts %d+%d != %d", lo, hi, total)
	}
}

func TestRegistryIdempotentAndKindMismatch(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "")
	b := r.Counter("x_total", "")
	if a != b {
		t.Error("re-registration returned a different counter")
	}
	h1 := r.Histogram("h", "", []float64{1, 2})
	h2 := r.Histogram("h", "", []float64{9}) // bounds ignored on refetch
	if h1 != h2 {
		t.Error("re-registration returned a different histogram")
	}
	defer func() {
		if recover() == nil {
			t.Error("kind mismatch did not panic")
		}
	}()
	r.Gauge("x_total", "")
}

func TestNilInstrumentsAreInert(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	var r *Registry
	c.Inc()
	c.Add(1)
	g.Set(1)
	g.Add(1)
	h.Observe(1)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Error("nil instruments reported non-zero values")
	}
	if r.Counter("a", "") != nil || r.Gauge("b", "") != nil || r.Histogram("c", "", nil) != nil {
		t.Error("nil registry returned live instruments")
	}
	if err := r.WritePrometheus(&bytes.Buffer{}); err != nil {
		t.Errorf("nil registry write: %v", err)
	}
}

// TestPrometheusGolden pins the exact text exposition.
func TestPrometheusGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("test_total", "a counter").Add(3)
	r.Gauge("test_gauge", "a gauge").Set(2.5)
	h := r.Histogram("test_hist", "a histogram", []float64{1, 2})
	h.Observe(0.5)
	h.Observe(2)
	h.Observe(3)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	want := strings.Join([]string{
		"# HELP test_gauge a gauge",
		"# TYPE test_gauge gauge",
		"test_gauge 2.5",
		"# HELP test_hist a histogram",
		"# TYPE test_hist histogram",
		`test_hist_bucket{le="1"} 1`,
		`test_hist_bucket{le="2"} 2`,
		`test_hist_bucket{le="+Inf"} 3`,
		"test_hist_sum 5.5",
		"test_hist_count 3",
		"# HELP test_total a counter",
		"# TYPE test_total counter",
		"test_total 3",
		"",
	}, "\n")
	if got := buf.String(); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestObserverExpositionGolden pins the family list a fresh observer
// exposes: every family's name, help text, type and bucket bounds, all at
// zero. testdata/observer.prom is that text; a renamed family, a mistyped
// help string or a moved bound shows up as the first line that differs.
func TestObserverExpositionGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/observer.prom")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := NewObserverAt(stepClock(time.Microsecond)).Metrics.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	got, wl := strings.Split(buf.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(got) && i < len(wl); i++ {
		if got[i] != wl[i] {
			t.Fatalf("exposition line %d = %q, want %q", i+1, got[i], wl[i])
		}
	}
	if len(got) != len(wl) {
		t.Fatalf("exposition has %d lines, want %d", len(got), len(wl))
	}
}
