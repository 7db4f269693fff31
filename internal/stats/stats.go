// Package stats provides the small statistical toolkit the PKA pipeline is
// built on: descriptive statistics, error metrics, geometric means, and the
// O(1) rolling-window moments that drive Principal Kernel Projection's
// online IPC-stability detector.
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrEmpty is returned by aggregations that require at least one sample.
var ErrEmpty = errors.New("stats: empty input")

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Variance returns the population variance of xs (dividing by N), or 0 when
// fewer than two samples are present.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return ss / float64(len(xs))
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// GeoMean returns the geometric mean of xs. Non-positive values are clamped
// to a tiny epsilon so that a single zero speedup cannot zero the aggregate;
// this mirrors how simulation-speedup geomeans are reported in practice.
func GeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	const eps = 1e-12
	var logSum float64
	for _, x := range xs {
		if x < eps {
			x = eps
		}
		logSum += math.Log(x)
	}
	return math.Exp(logSum / float64(len(xs)))
}

// Median returns the median of xs without mutating it.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	cp := append([]float64(nil), xs...)
	sort.Float64s(cp)
	n := len(cp)
	if n%2 == 1 {
		return cp[n/2]
	}
	return (cp[n/2-1] + cp[n/2]) / 2
}

// AbsPctErr returns |measured-reference| / |reference| * 100. A zero
// reference with a non-zero measurement reports 100% error; zero vs. zero is
// a perfect 0%.
func AbsPctErr(measured, reference float64) float64 {
	if reference == 0 {
		if measured == 0 {
			return 0
		}
		return 100
	}
	return math.Abs(measured-reference) / math.Abs(reference) * 100
}

// MAPE returns the mean absolute percentage error between the measured and
// reference series, which must have equal length.
func MAPE(measured, reference []float64) (float64, error) {
	if len(measured) != len(reference) {
		return 0, errors.New("stats: length mismatch")
	}
	if len(measured) == 0 {
		return 0, ErrEmpty
	}
	var sum float64
	for i := range measured {
		sum += AbsPctErr(measured[i], reference[i])
	}
	return sum / float64(len(measured)), nil
}

// Rolling maintains the mean and standard deviation of the last Window
// samples in O(1) time per Push. It is the online detector behind Principal
// Kernel Projection: the simulator pushes one IPC sample per cycle and asks
// whether the windowed signal has stabilized.
type Rolling struct {
	window int
	buf    []float64
	head   int
	count  int
	sum    float64
	sumSq  float64
}

// NewRolling returns a rolling-moment tracker over the given window size.
// It panics if window < 1; the window is a structural parameter, not data.
func NewRolling(window int) *Rolling {
	if window < 1 {
		panic("stats: rolling window must be >= 1")
	}
	return &Rolling{window: window, buf: make([]float64, window)}
}

// Window returns the configured window length.
func (r *Rolling) Window() int { return r.window }

// Count returns how many samples currently populate the window.
func (r *Rolling) Count() int { return r.count }

// Full reports whether the window has been completely filled at least once.
func (r *Rolling) Full() bool { return r.count == r.window }

// Push adds a sample, evicting the oldest one once the window is full.
func (r *Rolling) Push(x float64) {
	if r.count == r.window {
		old := r.buf[r.head]
		r.sum -= old
		r.sumSq -= old * old
	} else {
		r.count++
	}
	r.buf[r.head] = x
	r.sum += x
	r.sumSq += x * x
	r.head++
	if r.head == r.window {
		r.head = 0
	}
}

// Mean returns the mean of the samples currently in the window.
func (r *Rolling) Mean() float64 {
	if r.count == 0 {
		return 0
	}
	return r.sum / float64(r.count)
}

// StdDev returns the population standard deviation of the window. Floating
// point cancellation can drive the raw variance estimate slightly negative;
// it is clamped at zero.
func (r *Rolling) StdDev() float64 {
	if r.count == 0 {
		return 0
	}
	n := float64(r.count)
	m := r.sum / n
	v := r.sumSq/n - m*m
	if v < 0 {
		v = 0
	}
	return math.Sqrt(v)
}

// CoefVar returns the coefficient of variation (stddev / mean) of the
// window. A zero-mean window reports +Inf unless it is also zero-variance,
// which reports 0. PKP compares this normalized dispersion against its
// stability threshold s so the criterion is scale-free across kernels whose
// IPC ranges from single digits to thousands.
func (r *Rolling) CoefVar() float64 {
	sd := r.StdDev()
	m := r.Mean()
	if m == 0 {
		if sd == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return sd / math.Abs(m)
}
