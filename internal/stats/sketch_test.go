package stats

import (
	"math"
	"math/rand"
	"testing"
)

// sketchErrBound is the documented one-sided error: estimate in
// [exact, exact + exact/32 + 1].
func sketchWithin(t *testing.T, name string, exact, est int64) {
	t.Helper()
	if est < exact {
		t.Fatalf("%s: estimate %d below exact %d (must be one-sided high)", name, est, exact)
	}
	if est > exact+exact/32+1 {
		t.Fatalf("%s: estimate %d exceeds exact %d + 1/32 bound", name, est, exact)
	}
}

// TestSketchDifferentialFuzz drives random streams from several
// heavy-tailed shapes through the sketch and the exact sampler and
// checks every quantile estimate against the documented bound.
func TestSketchDifferentialFuzz(t *testing.T) {
	quantiles := []float64{0, 0.25, 0.5, 0.9, 0.99, 0.999, 1}
	for seed := int64(1); seed <= 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var q QuantileSketch
		exact := NewSampler(1 << 12)
		n := 100 + rng.Intn(5000)
		for i := 0; i < n; i++ {
			var v int64
			switch rng.Intn(4) {
			case 0: // uniform small (exact region)
				v = rng.Int63n(32)
			case 1: // uniform mid
				v = rng.Int63n(1_000_000)
			case 2: // log-uniform across octaves
				v = int64(1) << uint(rng.Intn(50))
				v += rng.Int63n(v)
			default: // heavy tail
				v = int64(rng.ExpFloat64() * 2e6)
			}
			q.Observe(v)
			exact.Add(float64(v))
		}
		if q.Count() != int64(n) {
			t.Fatalf("seed %d: count %d, want %d", seed, q.Count(), n)
		}
		for _, f := range quantiles {
			sketchWithin(t, "quantile", int64(exact.Quantile(f)), q.Quantile(f))
		}
		if got, want := q.Max(), int64(exact.Max()); got != want {
			t.Fatalf("seed %d: max %d, want %d", seed, got, want)
		}
	}
}

// TestSketchExactBelow32 checks the linear region is exact.
func TestSketchExactBelow32(t *testing.T) {
	var q QuantileSketch
	for v := int64(0); v < 32; v++ {
		q.Observe(v)
	}
	for i := 1; i <= 32; i++ {
		f := float64(i) / 32
		want := int64(i - 1)
		if got := q.Quantile(f); got != want {
			t.Fatalf("Quantile(%g) = %d, want exact %d", f, got, want)
		}
	}
	if q.Max() != 31 || q.Sum() != 31*32/2 {
		t.Fatalf("max/sum = %d/%d", q.Max(), q.Sum())
	}
}

// TestSketchMergeEquivalence: merging per-shard sketches must produce
// exactly the sketch of the concatenated stream, for any split and any
// merge tree — the property the byte-identical rollup stands on.
func TestSketchMergeEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	vals := make([]int64, 4096)
	for i := range vals {
		vals[i] = rng.Int63n(1 << 40)
	}
	var whole QuantileSketch
	for _, v := range vals {
		whole.Observe(v)
	}

	// Split into 8 shards round-robin, merge left-to-right.
	shards := make([]QuantileSketch, 8)
	for i, v := range vals {
		shards[i%8].Observe(v)
	}
	var ltr QuantileSketch
	for i := range shards {
		ltr.Merge(&shards[i])
	}
	if ltr != whole {
		t.Fatal("left-to-right merge differs from whole-stream sketch")
	}

	// Tree merge in a different association order.
	var left, right QuantileSketch
	for i := 0; i < 4; i++ {
		left.Merge(&shards[i])
	}
	for i := 4; i < 8; i++ {
		right.Merge(&shards[i])
	}
	right.Merge(&left) // reversed operand order too (commutativity)
	if right != whole {
		t.Fatal("tree merge differs from whole-stream sketch")
	}
}

// TestSketchMergeEdgeAlignment: sketches that observed disjoint value
// ranges, right at the power-of-two edges, merge into the whole-stream
// sketch, and the merged cumulative count at every 2^i - 1 is the exact
// count of values at or below it — no sample shifts across a log2 edge.
func TestSketchMergeEdgeAlignment(t *testing.T) {
	var lo, hi, whole QuantileSketch
	var vals []int64
	for k := uint(0); k <= 62; k++ {
		edge := int64(1) << k
		dst := &lo
		if k >= 20 {
			dst = &hi
		}
		for _, v := range []int64{edge - 1, edge, edge + 1} {
			dst.Observe(v)
			whole.Observe(v)
			vals = append(vals, v)
		}
	}
	lo.Merge(&hi)
	if lo != whole {
		t.Fatal("merge of disjoint ranges differs from whole-stream sketch")
	}
	for i := uint(0); i <= 63; i++ {
		edge := int64(math.MaxInt64)
		if i < 63 {
			edge = int64(1)<<i - 1
		}
		var want int64
		for _, v := range vals {
			if v <= edge {
				want++
			}
		}
		if got := lo.CountAtMost(edge); got != want {
			t.Fatalf("CountAtMost(2^%d-1) = %d, want %d", i, got, want)
		}
	}
}

// TestSketchNilSafe: a nil sketch is a disabled instrument (Observe is a
// no-op, reads are zero), and merging a nil or empty sketch changes
// nothing.
func TestSketchNilSafe(t *testing.T) {
	var nilQ *QuantileSketch
	nilQ.Observe(7)
	if nilQ.Count() != 0 || nilQ.Sum() != 0 || nilQ.Max() != 0 {
		t.Fatal("nil sketch reads non-zero")
	}
	var q QuantileSketch
	q.Observe(1)
	q.Observe(1 << 30)
	before := q
	q.Merge(nil)
	q.Merge(&QuantileSketch{})
	if q != before {
		t.Fatal("Merge(nil) or Merge(empty) modified the receiver")
	}
}

func TestSketchNegativeClamps(t *testing.T) {
	var q QuantileSketch
	q.Observe(-5)
	q.Observe(10)
	if q.Count() != 2 || q.Sum() != 10 || q.Max() != 10 || q.Quantile(0) != 0 {
		t.Fatalf("count/sum/max/min = %d/%d/%d/%d", q.Count(), q.Sum(), q.Max(), q.Quantile(0))
	}
}

// TestSketchBucketBounds exhaustively checks the bucketing round-trip:
// every bucket's upper bound lands back in that bucket, bounds are
// strictly increasing, and the width respects the 1/32 relative bound.
func TestSketchBucketBounds(t *testing.T) {
	prev := int64(-1)
	for i := 0; i < numSketchBuckets; i++ {
		u := sketchBucketUpper(i)
		if u <= prev {
			t.Fatalf("bucket %d: upper %d not increasing past %d", i, u, prev)
		}
		if got := sketchBucketOf(u); got != i {
			t.Fatalf("bucket %d: upper %d maps to bucket %d", i, u, got)
		}
		width := u - prev
		if u >= 32 && width > u/32+1 {
			t.Fatalf("bucket %d: width %d exceeds 1/32 of %d", i, width, u)
		}
		prev = u
	}
}

// TestSketchObserveZeroAlloc gates the update path at 0 allocs/op.
func TestSketchObserveZeroAlloc(t *testing.T) {
	var q QuantileSketch
	v := int64(17)
	allocs := testing.AllocsPerRun(1000, func() {
		q.Observe(v)
		v = v*2862933555777941757 + 3037000493
		if v < 0 {
			v = -v
		}
	})
	if allocs != 0 {
		t.Fatalf("Observe allocates %.1f per op, want 0", allocs)
	}
}

func BenchmarkSketchObserve(b *testing.B) {
	var q QuantileSketch
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q.Observe(int64(i) * 977)
	}
}
