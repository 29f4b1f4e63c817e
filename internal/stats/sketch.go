package stats

import (
	"math"
	"math/bits"
)

// QuantileSketch is a fixed-size streaming quantile estimator for
// non-negative int64 observations (nanoseconds, bytes, packets — anything
// whose tail matters more than its mean). It is an HDR-histogram-style
// log-linear bucketing: values below 32 land in exact unit buckets, and
// every octave above is split into 32 linear sub-buckets, so a bucket's
// width never exceeds 1/32 of the values it holds. It is the one bounded,
// mergeable distribution in the tree: the fleet rollups merge it, and
// every metrics-registry histogram is one.
//
// Guarantees, all deterministic:
//
//   - Observe is O(1), allocation-free, and never samples or drops:
//     bucket counts are exact, so a quantile query walks exact
//     cumulative counts and only the VALUE inside the final bucket is
//     approximated. Quantile returns the bucket's inclusive upper bound
//     (clamped to the observed max), giving
//     exact <= estimate <= exact*(1+1/32)+1 — a one-sided relative
//     value error of at most 3.125%, equivalently a rank error bounded
//     by one bucket's mass.
//   - Every 2^i - 1 is a bucket's upper bound, so CountAtMost reads the
//     exact cumulative count at each log2 edge.
//   - Merge is element-wise addition: exactly associative, commutative,
//     and order-independent, so any rollup tree over the same leaf
//     sketches produces identical bytes.
//
// The zero value is an empty, ready-to-use sketch (~15 KB inline, no
// pointers). A nil *QuantileSketch is a valid no-op for Observe, Count,
// Sum and Max, so a disabled instrument costs one branch.
type QuantileSketch struct {
	buckets [numSketchBuckets]int64
	count   int64
	sum     int64
	max     int64
}

// sketchSubBits is the per-octave resolution: 2^5 = 32 sub-buckets, a
// 1/32 worst-case relative bucket width.
const sketchSubBits = 5

// numSketchBuckets covers all of [0, 2^63): 32 exact unit buckets for
// values 0..31, then 58 octaves (2^5..2^62 leading bits) of 32
// sub-buckets each.
const numSketchBuckets = (64 - sketchSubBits) << sketchSubBits // 1888

// sketchBucketOf maps a non-negative value to its bucket index.
func sketchBucketOf(v int64) int {
	if v < 1<<sketchSubBits {
		return int(v)
	}
	o := bits.Len64(uint64(v)) - 1 // v in [2^o, 2^(o+1)), o >= sketchSubBits
	sub := int(v>>(uint(o)-sketchSubBits)) & (1<<sketchSubBits - 1)
	return (o-sketchSubBits+1)<<sketchSubBits + sub
}

// sketchBucketUpper returns the inclusive upper bound of bucket i — the
// deterministic value a quantile query reports for mass in that bucket.
func sketchBucketUpper(i int) int64 {
	if i < 1<<sketchSubBits {
		return int64(i)
	}
	g := i>>sketchSubBits - 1 // octave group: values with Len64 == g+sketchSubBits+1
	sub := int64(i & (1<<sketchSubBits - 1))
	o := uint(g) + sketchSubBits
	lower := int64(1)<<o + sub<<(o-sketchSubBits)
	return lower + int64(1)<<(o-sketchSubBits) - 1
}

// Observe records one sample; safe on nil. Negative values clamp to 0
// (latency and byte counts have no meaningful negative range; clamping
// keeps the count exact instead of silently dropping). Zero allocations.
// It stays small enough to inline, so a disabled instrument on the
// receive path is one branch at the call site.
func (q *QuantileSketch) Observe(v int64) {
	if q != nil {
		q.observe(v)
	}
}

func (q *QuantileSketch) observe(v int64) {
	if v < 0 {
		v = 0
	}
	q.buckets[sketchBucketOf(v)]++
	if v > q.max {
		q.max = v
	}
	q.count++
	q.sum += v
}

// Count returns the number of observations (0 on nil).
func (q *QuantileSketch) Count() int64 {
	if q == nil {
		return 0
	}
	return q.count
}

// Sum returns the exact sum of (clamped) observations (0 on nil).
func (q *QuantileSketch) Sum() int64 {
	if q == nil {
		return 0
	}
	return q.sum
}

// Max returns the largest observation (0 when empty or nil).
func (q *QuantileSketch) Max() int64 {
	if q == nil {
		return 0
	}
	return q.max
}

// CountAtMost returns the number of observations in the buckets up to and
// including v's. It is exact — the count of observations <= v — when v is
// a bucket's upper bound, as every 2^i - 1 is.
func (q *QuantileSketch) CountAtMost(v int64) int64 {
	if v < 0 {
		return 0
	}
	var cum int64
	for _, c := range q.buckets[:sketchBucketOf(v)+1] {
		cum += c
	}
	return cum
}

// Quantile returns the estimate for the f-th quantile (0 <= f <= 1)
// using nearest-rank over the exact bucket counts; the returned value is
// the holding bucket's upper bound, clamped to the observed max. Returns
// 0 when empty.
func (q *QuantileSketch) Quantile(f float64) int64 {
	if q.count == 0 {
		return 0
	}
	target := int64(math.Ceil(f * float64(q.count)))
	if target < 1 {
		target = 1
	}
	if target > q.count {
		target = q.count
	}
	var cum int64
	for i, c := range q.buckets {
		cum += c
		if cum >= target {
			// The bucket's upper bound dominates every value it holds;
			// clamping to the observed max tightens the top bucket.
			v := sketchBucketUpper(i)
			if v > q.max {
				v = q.max
			}
			return v
		}
	}
	return q.max
}

// P50 is Quantile(0.50).
func (q *QuantileSketch) P50() int64 { return q.Quantile(0.50) }

// P99 is Quantile(0.99).
func (q *QuantileSketch) P99() int64 { return q.Quantile(0.99) }

// P999 is Quantile(0.999).
func (q *QuantileSketch) P999() int64 { return q.Quantile(0.999) }

// Merge folds o into q: element-wise bucket addition plus exact
// count/sum/max combination. Associative, commutative, and
// schedule-independent — the foundation of the byte-identical rollup.
// A nil or empty o is a no-op.
func (q *QuantileSketch) Merge(o *QuantileSketch) {
	if o == nil || o.count == 0 {
		return
	}
	for i, c := range o.buckets {
		q.buckets[i] += c
	}
	if o.max > q.max {
		q.max = o.max
	}
	q.count += o.count
	q.sum += o.sum
}
