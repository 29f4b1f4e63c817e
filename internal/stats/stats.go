// Package stats provides the measurement primitives used by the evaluation
// harness: exact-percentile samplers, fixed-bin histograms, time-binned
// series, and streaming mean/variance.
//
// The experiments quote medians, 99th percentiles, averages, and standard
// deviations; everything here is deterministic and allocation-conscious so
// it can run inside the hot simulation loop.
package stats

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// Sampler collects float64 observations and answers exact quantile queries.
// It keeps all samples; experiments produce at most a few million points,
// which is fine for an offline harness.
type Sampler struct {
	xs     []float64
	sorted bool
}

// NewSampler returns an empty sampler with capacity hint n.
func NewSampler(n int) *Sampler { return &Sampler{xs: make([]float64, 0, n)} }

// Add records one observation.
func (s *Sampler) Add(x float64) {
	s.xs = append(s.xs, x)
	s.sorted = false
}

// AddDuration records a duration in seconds.
func (s *Sampler) AddDuration(d time.Duration) { s.Add(d.Seconds()) }

// N returns the number of observations.
func (s *Sampler) N() int { return len(s.xs) }

// Quantile returns the q-th quantile (0 <= q <= 1) using nearest-rank on
// the sorted samples. Returns 0 when empty.
func (s *Sampler) Quantile(q float64) float64 {
	if len(s.xs) == 0 {
		return 0
	}
	if !s.sorted {
		sort.Float64s(s.xs)
		s.sorted = true
	}
	if q <= 0 {
		return s.xs[0]
	}
	if q >= 1 {
		return s.xs[len(s.xs)-1]
	}
	idx := int(math.Ceil(q*float64(len(s.xs)))) - 1
	if idx < 0 {
		idx = 0
	}
	return s.xs[idx]
}

// Median is Quantile(0.5).
func (s *Sampler) Median() float64 { return s.Quantile(0.5) }

// P99 is Quantile(0.99).
func (s *Sampler) P99() float64 { return s.Quantile(0.99) }

// P999 is Quantile(0.999) — the deep-tail reference the fleet sketches
// are differentially tested against.
func (s *Sampler) P999() float64 { return s.Quantile(0.999) }

// Mean returns the arithmetic mean (0 when empty).
func (s *Sampler) Mean() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range s.xs {
		sum += x
	}
	return sum / float64(len(s.xs))
}

// Max returns the largest observation (0 when empty).
func (s *Sampler) Max() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	m := s.xs[0]
	for _, x := range s.xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Welford accumulates streaming mean and variance without storing samples
// (used for long-running rate statistics).
type Welford struct {
	n    int64
	mean float64
	m2   float64
}

// Add records one observation.
func (w *Welford) Add(x float64) {
	w.n++
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// N returns the observation count.
func (w *Welford) N() int64 { return w.n }

// Mean returns the running mean.
func (w *Welford) Mean() float64 { return w.mean }

// Std returns the sample standard deviation (0 for n < 2).
func (w *Welford) Std() float64 {
	if w.n < 2 {
		return 0
	}
	return math.Sqrt(w.m2 / float64(w.n-1))
}

// Hist is an integer-valued histogram with unit-width bins starting at 0,
// used for e.g. "length of the active list" distributions (Figure 16).
type Hist struct {
	bins []int64
	n    int64
}

// Observe counts one occurrence of value v (negative values clamp to 0).
func (h *Hist) Observe(v int) {
	if v < 0 {
		v = 0
	}
	for v >= len(h.bins) {
		h.bins = append(h.bins, 0)
	}
	h.bins[v]++
	h.n++
}

// N returns the total observation count.
func (h *Hist) N() int64 { return h.n }

// Fraction returns the fraction of observations equal to v.
func (h *Hist) Fraction(v int) float64 {
	if h.n == 0 || v < 0 || v >= len(h.bins) {
		return 0
	}
	return float64(h.bins[v]) / float64(h.n)
}

// Quantile returns the smallest value v such that at least q of the mass is
// <= v.
func (h *Hist) Quantile(q float64) int {
	if h.n == 0 {
		return 0
	}
	target := int64(math.Ceil(q * float64(h.n)))
	if target < 1 {
		target = 1
	}
	var cum int64
	for v, c := range h.bins {
		cum += c
		if cum >= target {
			return v
		}
	}
	return len(h.bins) - 1
}

// Mean returns the histogram mean.
func (h *Hist) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	var sum int64
	for v, c := range h.bins {
		sum += int64(v) * c
	}
	return float64(sum) / float64(h.n)
}

// Max returns the largest observed value.
func (h *Hist) Max() int {
	for v := len(h.bins) - 1; v >= 0; v-- {
		if h.bins[v] > 0 {
			return v
		}
	}
	return 0
}

// String renders non-empty bins compactly.
func (h *Hist) String() string {
	s := ""
	for v, c := range h.bins {
		if c > 0 {
			if s != "" {
				s += " "
			}
			s += fmt.Sprintf("%d:%d", v, c)
		}
	}
	if s == "" {
		return "(empty)"
	}
	return s
}

// TimeSeries bins a running byte (or event) count into fixed intervals,
// producing throughput-vs-time plots like Figure 1.
type TimeSeries struct {
	binWidth time.Duration
	bins     []float64
}

// NewTimeSeries creates a series with the given bin width.
func NewTimeSeries(binWidth time.Duration) *TimeSeries {
	if binWidth <= 0 {
		panic("stats: non-positive bin width")
	}
	return &TimeSeries{binWidth: binWidth}
}

// Add accumulates amount at time t (nanoseconds since run start).
func (ts *TimeSeries) Add(t time.Duration, amount float64) {
	if t < 0 {
		return
	}
	idx := int(t / ts.binWidth)
	for idx >= len(ts.bins) {
		ts.bins = append(ts.bins, 0)
	}
	ts.bins[idx] += amount
}

// Bins returns the accumulated per-bin values.
func (ts *TimeSeries) Bins() []float64 { return ts.bins }

// Rates converts accumulated bytes per bin into bit rates (bits/second).
func (ts *TimeSeries) Rates() []float64 {
	out := make([]float64, len(ts.bins))
	for i, b := range ts.bins {
		out[i] = b * 8 / ts.binWidth.Seconds()
	}
	return out
}
