package serve_test

import (
	"testing"
	"time"

	"pka/internal/serve"
)

// TestRecorderPercentiles pins the nearest-rank math on a tiny window.
func TestRecorderPercentiles(t *testing.T) {
	rec := serve.NewRecorder(100)
	for i := 1; i <= 100; i++ {
		rec.Observe(0, time.Duration(i)*time.Millisecond)
	}
	rep := rec.Report()
	if rep.P50 != 50*time.Millisecond || rep.P95 != 95*time.Millisecond || rep.P99 != 99*time.Millisecond {
		t.Errorf("percentiles: p50=%v p95=%v p99=%v", rep.P50, rep.P95, rep.P99)
	}
	if rep.Max != 100*time.Millisecond || rep.Mean != 50500*time.Microsecond {
		t.Errorf("max=%v mean=%v", rep.Max, rep.Mean)
	}

	// The ring keeps only the newest window.
	small := serve.NewRecorder(4)
	for i := 1; i <= 10; i++ {
		small.Observe(0, time.Duration(i)*time.Second)
	}
	rep = small.Report()
	if rep.Window != 4 || rep.Max != 10*time.Second || rep.P50 != 8*time.Second {
		t.Errorf("rolled window: %+v", rep)
	}

	// A server without a window has a nil recorder.
	var none *serve.Recorder
	none.Observe(time.Second, time.Second)
	if rep := none.Report(); *rep != (serve.Report{}) {
		t.Errorf("nil recorder reported %+v", rep)
	}
}
