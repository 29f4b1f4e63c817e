// Package stats provides the measurement primitives: time-binned series,
// streaming mean/variance, and the tree's two distribution types. Sampler
// keeps every observation and answers exact quantiles — the source of the
// evaluation harness's columns. QuantileSketch is bounded and mergeable —
// the type behind every telemetry histogram and fleet rollup.
//
// The experiments quote medians, 99th percentiles, averages, and standard
// deviations; everything here is deterministic, and the sketch is
// allocation-free so it can run inside the hot simulation loop.
package stats

import (
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

// Reset discards every observation, keeping the buffer — how a run drops
// its warm-up samples.
func (s *Sampler) Reset() {
	s.xs = s.xs[:0]
	s.sorted = false
}

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

// P999 is Quantile(0.999) — the deep-tail reference QuantileSketch is
// differentially tested against.
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
