package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestSamplerQuantiles(t *testing.T) {
	s := NewSampler(0)
	for i := 100; i >= 1; i-- { // reverse order on purpose
		s.Add(float64(i))
	}
	if got := s.Quantile(0); got != 1 {
		t.Fatalf("q0 = %v", got)
	}
	if got := s.Quantile(1); got != 100 {
		t.Fatalf("q1 = %v", got)
	}
	if got := s.Median(); got != 50 {
		t.Fatalf("median = %v", got)
	}
	if got := s.P99(); got != 99 {
		t.Fatalf("p99 = %v", got)
	}
	if s.N() != 100 {
		t.Fatalf("N = %d", s.N())
	}
}

func TestSamplerEmpty(t *testing.T) {
	s := NewSampler(0)
	if s.Median() != 0 || s.Mean() != 0 || s.Max() != 0 {
		t.Fatal("empty sampler should return zeros")
	}
}

func TestSamplerAddAfterQuery(t *testing.T) {
	s := NewSampler(0)
	s.Add(5)
	_ = s.Median()
	s.Add(1) // must re-sort
	if got := s.Quantile(0); got != 1 {
		t.Fatalf("min after re-add = %v", got)
	}
}

func TestSamplerMeanMax(t *testing.T) {
	s := NewSampler(0)
	s.AddDuration(2 * time.Second)
	s.AddDuration(4 * time.Second)
	if got := s.Mean(); got != 3 {
		t.Fatalf("mean = %v", got)
	}
	if got := s.Max(); got != 4 {
		t.Fatalf("max = %v", got)
	}
}

// Property: quantiles are monotone in q and bracket the data.
func TestPropertySamplerMonotone(t *testing.T) {
	f := func(data []float64, a, b uint8) bool {
		if len(data) == 0 {
			return true
		}
		for _, x := range data {
			if math.IsNaN(x) {
				return true
			}
		}
		s := NewSampler(0)
		for _, x := range data {
			s.Add(x)
		}
		q1 := float64(a%101) / 100
		q2 := float64(b%101) / 100
		if q1 > q2 {
			q1, q2 = q2, q1
		}
		v1, v2 := s.Quantile(q1), s.Quantile(q2)
		sorted := append([]float64(nil), data...)
		sort.Float64s(sorted)
		return v1 <= v2 && v1 >= sorted[0] && v2 <= sorted[len(sorted)-1]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestWelford(t *testing.T) {
	var w Welford
	data := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	for _, x := range data {
		w.Add(x)
	}
	if w.N() != 8 {
		t.Fatalf("N = %d", w.N())
	}
	if math.Abs(w.Mean()-5) > 1e-12 {
		t.Fatalf("mean = %v", w.Mean())
	}
	// Sample std of this classic dataset: sqrt(32/7).
	want := math.Sqrt(32.0 / 7.0)
	if math.Abs(w.Std()-want) > 1e-12 {
		t.Fatalf("std = %v, want %v", w.Std(), want)
	}
}

func TestWelfordDegenerate(t *testing.T) {
	var w Welford
	if w.Std() != 0 {
		t.Fatal("std of empty must be 0")
	}
	w.Add(3)
	if w.Std() != 0 {
		t.Fatal("std of single sample must be 0")
	}
}

func TestTimeSeries(t *testing.T) {
	ts := NewTimeSeries(100 * time.Millisecond)
	ts.Add(50*time.Millisecond, 1000)
	ts.Add(60*time.Millisecond, 500)
	ts.Add(250*time.Millisecond, 2000)
	bins := ts.Bins()
	if len(bins) != 3 {
		t.Fatalf("bins = %v", bins)
	}
	if bins[0] != 1500 || bins[1] != 0 || bins[2] != 2000 {
		t.Fatalf("bins = %v", bins)
	}
	rates := ts.Rates()
	if rates[0] != 1500*8/0.1 {
		t.Fatalf("rate[0] = %v", rates[0])
	}
	ts.Add(-time.Second, 5) // ignored
	if ts.Bins()[0] != 1500 {
		t.Fatal("negative time should be ignored")
	}
}
