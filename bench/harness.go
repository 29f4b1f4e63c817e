package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"time"
)

// secondSmallest is the host-time estimator. Interference from the shared
// box only ever adds time, so the low end of k identical repetitions is
// the clean signal; the very smallest is skipped because one lucky memory
// layout can subtract time. With fewer than two samples it degenerates to
// the only one.
func secondSmallest(xs []float64) float64 {
	s := sorted(xs)
	if len(s) < 2 {
		return s[0]
	}
	return s[1]
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 { return quantile(sorted(xs), 0.5) }

// quantile is nearest-rank on an ascending slice.
func quantile(s []float64, q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// quartiles returns q1 and q3 exactly as Python's
// statistics.quantiles(xs, n=4) does, which is what the acceptance check
// computes. It needs at least two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// probe is the fixed reference loop every host-time number is scaled by.
// The shared box slows down and speeds up by tens of percent over seconds
// and minutes, and that factor multiplies the benchmark and a loop run
// right beside it alike. A probe pass runs before and after every timed
// step; a step's time is divided by how much slower than refNs the probes
// around it ran. On a quiet reference box the factor is 1 and the result
// is plain nanoseconds.
//
// What the loop does decides whether it feels the same interference as
// the workload, so there are two, and README.md has the measurements
// behind the choice. The TCP workloads' slowdowns track instruction
// throughput (a busy sibling hyperthread, most likely), not memory: their
// probe is a miniature of the simulator's own inner loop — pop the
// earliest key of a 4-ary heap, hash it bytewise, push a later one — all
// in L1. rx-flowscale misses to DRAM on every flow lookup and follows
// memory contention instead: its probe (words > 0) reads and writes two
// neighbouring cache lines at independent random places in a 64 MiB
// array, as many misses in flight as the core will overlap, like lookups
// for a batch of unrelated flows. Changing either loop, its sizes or
// refNs redefines every host-time metric.
type probe struct {
	iters int
	words int     // gather over this many uint32s (a power of two); 0 selects the heap loop
	refNs float64 // one pass on the quiet reference box

	keys [256]uint64 // 4-ary min-heap
	n    int
	x    uint64
	arr  []uint32
}

var (
	heapProbe   = &probe{iters: 600, refNs: 20500}
	gatherProbe = &probe{iters: 4096, words: 1 << 24, refNs: 92000}
)

// probeBytes is the heap the gather probe's array holds, which
// live_heap_mb leaves out.
func probeBytes() uint64 { return 4 * uint64(len(gatherProbe.arr)) }

func (p *probe) push(k uint64) {
	i := p.n
	p.n++
	for i > 0 {
		up := (i - 1) >> 2
		if p.keys[up] <= k {
			break
		}
		p.keys[i] = p.keys[up]
		i = up
	}
	p.keys[i] = k
}

func (p *probe) pop() uint64 {
	top := p.keys[0]
	p.n--
	last := p.keys[p.n]
	i := 0
	for {
		c := i<<2 + 1
		if c >= p.n {
			break
		}
		least := c
		for k := c + 1; k < min(c+4, p.n); k++ {
			if p.keys[k] < p.keys[least] {
				least = k
			}
		}
		if p.keys[least] >= last {
			break
		}
		p.keys[i] = p.keys[least]
		i = least
	}
	p.keys[i] = last
	return top
}

// run makes one pass and returns the host time it took, in ns. State is
// set up on first use so a run pays only for the probe its workloads
// name.
func (p *probe) run() float64 {
	if p.n == 0 {
		p.arr, p.x = make([]uint32, p.words), 1
		for i := 0; i < 200; i++ {
			p.x = p.x*6364136223846793005 + 1442695040888963407
			p.push(p.x >> 20)
		}
	}
	t := time.Now()
	if p.words > 0 {
		mask, x, sum := uint32(p.words-1), uint32(p.x), uint32(0)
		for i := 0; i < p.iters; i++ {
			x = x*1664525 + 1013904223
			at := (x >> 6) & mask
			sum += p.arr[at]
			p.arr[at^16] = sum // the next cache line
		}
		p.x = uint64(x)
	} else {
		for i := 0; i < p.iters; i++ {
			k := p.pop()
			p.x = p.x*6364136223846793005 + 1442695040888963407
			f := uint32(2166136261) // FNV-1a over the key's bytes
			for b := 0; b < 8; b++ {
				f ^= uint32(k>>(8*b)) & 0xff
				f *= 16777619
			}
			p.push(k + (p.x>>44)%4096 + uint64(f&15))
		}
	}
	return float64(time.Since(t).Nanoseconds())
}

// steps times a sequence of steps with a probe pass between each two.
type steps struct {
	p     *probe
	raw   []float64 // ns per step
	probe []float64 // ns per probe pass; probe[k] ran just before step k
}

func (st *steps) run(fn func()) {
	st.probe = append(st.probe, st.p.run())
	t := time.Now()
	fn()
	st.raw = append(st.raw, float64(time.Since(t).Nanoseconds()))
}

// probeSpan is how many probe passes either side of a step make up its
// local reference; the median of that many smooths a single disturbed
// pass without losing the slow drift.
const probeSpan = 4

// scaled closes the sequence with a last probe pass and returns each
// step's time divided by the local slowdown.
func (st *steps) scaled() []float64 {
	st.probe = append(st.probe, st.p.run())
	out := make([]float64, len(st.raw))
	for k, t := range st.raw {
		lo, hi := max(0, k-probeSpan+1), min(len(st.probe), k+probeSpan+1)
		out[k] = t * st.p.refNs / median(st.probe[lo:hi])
	}
	return out
}

// rep is one measured repetition. Host time is kept per step so the
// estimator can work below the granularity of a whole repetition: setup
// holds build, each warm-up slice and the pre-window GC; window holds each
// timed slice, all probe-scaled. Same-index entries of two repetitions
// timed the same work.
type rep struct {
	started, windowAt, windowEnd time.Time

	setup, window  []float64 // scaled ns per step
	rawWindow      float64   // unscaled ns, the whole window
	slowdown       float64   // median probe pass over its reference
	d              counts    // window deltas
	vwindow        time.Duration
	mallocs, bytes uint64
	liveHeap       uint64
	gcCycles       uint32
	gcCPUs         float64 // GC CPU-seconds inside the window
	l0, l1         layerCounts
	out            outcome
}

// minMessages is the fewest completed messages a repetition may report:
// p99 then has at least 20 samples beyond it.
const minMessages = 2000

func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

// measure runs one fresh repetition: build, warm up in virtual time, GC,
// then the timed window between two MemStats reads. onSlice, when
// non-nil, runs after every timed slice, outside its timing.
func measure(w spec, seed int64, z sizing, tap *capture, onSlice func(instance)) rep {
	var r rep
	var m0, m1, m2 runtime.MemStats

	r.started = time.Now()
	st := steps{p: w.probe}
	var in instance
	st.run(func() { in = w.build(seed, z, tap) })
	warm, slices := in.steps()
	for i := 0; i < warm; i++ {
		st.run(in.step)
	}
	st.run(runtime.GC)
	nSetup := len(st.raw)

	in.openWindow()
	c0 := in.counts()
	r.l0 = in.layers()
	gc0 := gcCPUSeconds()
	runtime.ReadMemStats(&m0)
	r.windowAt = time.Now()
	for i := 0; i < slices; i++ {
		st.run(in.step)
		if onSlice != nil {
			onSlice(in)
		}
	}
	r.windowEnd = time.Now()
	runtime.ReadMemStats(&m1)
	r.gcCPUs = gcCPUSeconds() - gc0
	c1 := in.counts()
	r.l1 = in.layers()
	r.rawWindow = sum(st.raw[nSetup:])
	scaled := st.scaled()
	r.setup, r.window = scaled[:nSetup], scaled[nSetup:]
	r.slowdown = median(st.probe) / w.probe.refNs

	r.d = counts{pkts: c1.pkts - c0.pkts, segs: c1.segs - c0.segs, bytes: c1.bytes - c0.bytes,
		events: c1.events - c0.events}
	r.vwindow = c1.vnow.Sub(c0.vnow)
	r.mallocs = m1.Mallocs - m0.Mallocs
	r.bytes = m1.TotalAlloc - m0.TotalAlloc
	r.gcCycles = m1.NumGC - m0.NumGC

	// Live heap with the topology still reachable: two collections so
	// objects freed by finalizers in the first are gone in the second.
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&m2)
	r.liveHeap = m2.HeapAlloc - probeBytes()
	r.out = in.finish()
	runtime.KeepAlive(in)

	if r.out.err == nil && r.out.msgs < minMessages && !z.quick {
		r.out.err = fmt.Errorf("%d messages completed, want at least %d", r.out.msgs, minMessages)
	}
	if r.out.err == nil && r.d.pkts <= 0 {
		r.out.err = fmt.Errorf("no packets in the timed window")
	}
	return r
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// floorSum is the host-time estimator: for each step it takes the
// second-smallest time any repetition needed for that step, and adds
// those up. The repetitions are byte-identical, so step k is the same
// work in each of them; interference from the shared box comes in bursts
// shorter than a repetition, so most steps ran undisturbed in at least
// two of them.
func floorSum(reps []rep, steps func(*rep) []float64) float64 {
	col := make([]float64, len(reps))
	total := 0.0
	for k := range steps(&reps[0]) {
		for i := range reps {
			col[i] = steps(&reps[i])[k]
		}
		total += secondSmallest(col)
	}
	return total
}

func (r *rep) perPkt(v float64) float64 { return v / float64(r.d.pkts) }

func (r *rep) goodputGbps() float64 {
	return float64(r.d.bytes) * 8 / r.vwindow.Seconds() / 1e9
}

// digest fingerprints a repetition's simulated outcome: every
// deterministic counter plus the latency quantiles. Two repetitions of
// one build and seed must agree on it; two commits that agree on it
// simulated the same thing.
func (r *rep) digest() uint64 {
	h := fnv.New64a()
	for _, v := range []int64{
		r.d.pkts, r.d.segs, r.d.bytes, int64(r.d.events), int64(r.vwindow),
		r.out.ops, r.out.failed, int64(r.out.msgs),
		int64(math.Float64bits(r.out.p50Us)), int64(math.Float64bits(r.out.p99Us)),
	} {
		var b [8]byte
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	return h.Sum64()
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is a workload's untraced outcome over all its repetitions.
type result struct {
	workload string
	reps     []rep // reps[0] is the untimed reference
	metrics  map[string]metric
	digest   uint64
	ops      int64
	failed   int64
	errs     []string
	noisyRep int // the repetition furthest from the median, -1 when the spread is fine
	spread   float64
}

// noisySpread is the (q3-q1)/q1 of the timed repetitions above which the
// run warns that the box was too busy to trust the host-time numbers.
const noisySpread = 0.15

// timedValues applies f to the timed repetitions (all but rep 0).
func (res *result) timedValues(f func(*rep) float64) []float64 {
	var xs []float64
	for i := range res.reps[1:] {
		xs = append(xs, f(&res.reps[1+i]))
	}
	return xs
}

// summarize turns the repetitions into the nine end-to-end metrics and
// runs the cross-repetition correctness gate.
func summarize(name string, reps []rep) *result {
	res := &result{workload: name, reps: reps, noisyRep: -1}
	ref := &reps[0]
	res.digest = ref.digest()
	res.ops, res.failed = ref.out.ops, ref.out.failed
	for i := range reps {
		r := &reps[i]
		if r.out.err != nil {
			res.errs = append(res.errs, fmt.Sprintf("rep %d: %v", i, r.out.err))
		}
		if d := r.digest(); d != res.digest {
			res.errs = append(res.errs, fmt.Sprintf("rep %d: sim_digest %016x differs from rep 0's %016x", i, d, res.digest))
		}
	}
	if len(res.errs) > 0 {
		res.failed = res.ops // a failed check fails every op of the workload
	}

	wall := res.timedValues(func(r *rep) float64 { return r.perPkt(sum(r.window)) })
	res.metrics = map[string]metric{
		"wall_ns_per_pkt": {ref.perPkt(floorSum(reps[1:], windowOf)), "ns"},
		"setup_s":         {floorSum(reps[1:], func(r *rep) []float64 { return r.setup }) / 1e9, "s"},
		"events_per_pkt":  {ref.perPkt(float64(ref.d.events)), "count"},
		"allocs_per_pkt": {median(res.timedValues(func(r *rep) float64 { return r.perPkt(float64(r.mallocs)) })),
			"count"},
		"alloc_bytes_per_pkt": {median(res.timedValues(func(r *rep) float64 { return r.perPkt(float64(r.bytes)) })),
			"B"},
		"live_heap_mb": {median(res.timedValues(func(r *rep) float64 { return float64(r.liveHeap) / (1 << 20) })),
			"MiB"},
		"sim_goodput_gbps": {ref.goodputGbps(), "Gb/s"},
		"sim_msg_p50_us":   {ref.out.p50Us, "us"},
		"sim_msg_p99_us":   {ref.out.p99Us, "us"},
	}

	q1, q3 := quartiles(wall)
	res.spread = (q3 - q1) / q1
	if res.spread > noisySpread {
		med := median(wall)
		for i, v := range wall {
			if res.noisyRep < 0 || math.Abs(v-med) > math.Abs(wall[res.noisyRep-1]-med) {
				res.noisyRep = i + 1
			}
		}
	}
	return res
}

// runUntraced measures the given workloads one after the other: rep 0,
// then the timed repetitions. Between workloads the heap is collected and
// handed back to the OS so that one workload's footprint (rx-flowscale
// holds 140 MiB) is not the next one's memory layout.
func runUntraced(ws []spec, seed int64, z sizing) []*result {
	out := make([]*result, len(ws))
	for i, w := range ws {
		reps := make([]rep, 0, z.reps+1)
		for k := 0; k <= z.reps; k++ {
			reps = append(reps, measure(w, seed, z, nil, nil))
		}
		out[i] = summarize(w.name, reps)
		debug.FreeOSMemory()
	}
	return out
}
