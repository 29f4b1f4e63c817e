package telemetry

import (
	"fmt"
	"io"
	"math/bits"
	"slices"
	"sort"
	"strings"
)

// histBuckets is the number of log2 buckets in a Histogram. Bucket 0 holds
// observations <= 0; bucket b (1..histBuckets-2) holds [2^(b-1), 2^b - 1];
// the last bucket is the overflow catch-all.
const histBuckets = 32

// Gauge is a metric that can move in both directions. A nil *Gauge is a
// valid no-op, so disabled telemetry costs one branch per update.
type Gauge struct{ v int64 }

// Set overwrites the gauge value; safe on nil.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v = v
}

// Value returns the current value (0 on nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v
}

// Histogram is a log2-bucketed distribution of int64 observations. A nil
// *Histogram is a valid no-op.
type Histogram struct {
	buckets [histBuckets]int64
	count   int64
	sum     int64
}

// bucketOf maps an observation to its bucket index.
func bucketOf(v int64) int {
	if v <= 0 {
		return 0
	}
	b := bits.Len64(uint64(v)) // v in [2^(b-1), 2^b - 1]
	if b >= histBuckets {
		return histBuckets - 1
	}
	return b
}

// bucketUpper returns the inclusive upper bound of bucket i ("+Inf" for the
// overflow bucket, handled by the caller).
func bucketUpper(i int) int64 {
	if i == 0 {
		return 0
	}
	return (int64(1) << uint(i)) - 1
}

// Observe records one sample; safe on nil.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	h.buckets[bucketOf(v)]++
	h.count++
	h.sum += v
}

// Count returns the number of samples (0 on nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count
}

// Sum returns the sum of samples (0 on nil).
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum
}

// Merge folds o's samples into h: element-wise bucket addition plus
// count and sum. Because both histograms share the fixed log2 bucket
// edges, merging is exact at bucket resolution — merging equals having
// observed the union stream — and therefore associative, commutative,
// and independent of which rollup path delivered the samples (the
// fleet-telemetry merge rule). Safe on a nil receiver (no-op) and a
// nil argument.
func (h *Histogram) Merge(o *Histogram) {
	if h == nil || o == nil {
		return
	}
	for i := range h.buckets {
		h.buckets[i] += o.buckets[i]
	}
	h.count += o.count
	h.sum += o.sum
}

// Bucket returns the raw count in bucket i (0 on nil or out of range).
func (h *Histogram) Bucket(i int) int64 {
	if h == nil || i < 0 || i >= histBuckets {
		return 0
	}
	return h.buckets[i]
}

// metricType tags a family's instrument kind.
type metricType uint8

const (
	typeCounter metricType = iota
	typeGauge
	typeHistogram
)

func (t metricType) String() string {
	switch t {
	case typeCounter:
		return "counter"
	case typeGauge:
		return "gauge"
	case typeHistogram:
		return "histogram"
	}
	return "untyped"
}

// child is one labeled series inside a family. A counter child owns no
// count: it is a view whose value is the sum of the layer-owned int64s
// registered as its sources, read at export time.
type child struct {
	labelVal string
	srcs     []*int64
	gauge    *Gauge
	hist     *Histogram
}

// family is a named metric with optional single-key labels. Children are
// kept in creation order; exporters sort by label value for stable output
// regardless of which run path touched a label first.
type family struct {
	name     string
	help     string
	typ      metricType
	labelKey string // "" for unlabeled families
	children []*child
	index    map[string]*child
}

func (f *family) get(labelVal string) *child {
	if c, ok := f.index[labelVal]; ok {
		return c
	}
	c := &child{labelVal: labelVal}
	switch f.typ {
	case typeGauge:
		c.gauge = &Gauge{}
	case typeHistogram:
		c.hist = &Histogram{}
	}
	f.children = append(f.children, c)
	f.index[labelVal] = c
	return c
}

// Registry holds metric families in registration order. A nil *Registry is
// valid: CounterOf is a no-op and every other constructor returns a nil
// instrument, which is itself a no-op, so call sites never branch on
// enablement.
type Registry struct {
	families []*family
	index    map[string]*family
}

func newRegistry() *Registry {
	return &Registry{index: make(map[string]*family)}
}

func (r *Registry) family(name, help string, typ metricType, labelKey string) *family {
	if f, ok := r.index[name]; ok {
		if f.typ != typ || f.labelKey != labelKey {
			panic(fmt.Sprintf("telemetry: metric %q re-registered as %s/%q (was %s/%q)",
				name, typ, labelKey, f.typ, f.labelKey))
		}
		return f
	}
	f := &family{name: name, help: help, typ: typ, labelKey: labelKey,
		index: make(map[string]*child)}
	r.families = append(r.families, f)
	r.index[name] = f
	return f
}

// CounterOf registers src as a source of a counter: the unlabeled family
// name when labelKey is empty, else the child for labelVal. The registry
// keeps no count of its own — WriteProm prints the sum of the child's
// sources — so the int64 the layer already keeps is the one record of the
// fact. Many instances may feed one child (every tcp.Receiver feeds
// tcp_segments_in_total); registering a pointer again is a no-op, and a
// nil src only creates the child, which then prints 0. Safe on nil.
func (r *Registry) CounterOf(name, help, labelKey, labelVal string, src *int64) {
	if r == nil {
		return
	}
	c := r.family(name, help, typeCounter, labelKey).get(labelVal)
	if src != nil && !slices.Contains(c.srcs, src) {
		c.srcs = append(c.srcs, src)
	}
}

// Gauge returns the unlabeled gauge named name.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	return r.family(name, help, typeGauge, "").get("").gauge
}

// Histogram returns the unlabeled histogram named name.
func (r *Registry) Histogram(name, help string) *Histogram {
	if r == nil {
		return nil
	}
	return r.family(name, help, typeHistogram, "").get("").hist
}

// HistogramL returns the histogram for one label value of a labeled family.
func (r *Registry) HistogramL(name, help, labelKey, labelVal string) *Histogram {
	if r == nil {
		return nil
	}
	return r.family(name, help, typeHistogram, labelKey).get(labelVal).hist
}

// The text exposition format defines exactly three escapes in label
// values (backslash, double-quote, newline) and two in HELP text
// (backslash, newline). Go's %q would additionally emit \t, \xNN and
// \uNNNN sequences, which Prometheus parsers reject — so escaping is done
// explicitly (TestPromConformance covers the round trip).
var (
	promLabelEsc = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	promHelpEsc  = strings.NewReplacer(`\`, `\\`, "\n", `\n`)
)

// WriteProm writes a Prometheus text-format snapshot. Families appear in
// registration order, children sorted by label value, so the output is
// byte-identical across same-seed runs.
func (r *Registry) WriteProm(w io.Writer) error {
	if r == nil {
		return nil
	}
	for _, f := range r.families {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n",
			f.name, promHelpEsc.Replace(f.help), f.name, f.typ); err != nil {
			return err
		}
		children := make([]*child, len(f.children))
		copy(children, f.children)
		sort.Slice(children, func(i, j int) bool {
			return children[i].labelVal < children[j].labelVal
		})
		for _, c := range children {
			label := ""
			if f.labelKey != "" {
				label = fmt.Sprintf(`{%s="%s"}`, f.labelKey, promLabelEsc.Replace(c.labelVal))
			}
			switch f.typ {
			case typeCounter:
				var v int64
				for _, src := range c.srcs {
					v += *src
				}
				if _, err := fmt.Fprintf(w, "%s%s %d\n", f.name, label, v); err != nil {
					return err
				}
			case typeGauge:
				if _, err := fmt.Fprintf(w, "%s%s %d\n", f.name, label, c.gauge.Value()); err != nil {
					return err
				}
			case typeHistogram:
				if err := writePromHist(w, f, c, label); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// writePromHist writes one histogram child with cumulative le buckets.
func writePromHist(w io.Writer, f *family, c *child, label string) error {
	// Merge the extra le label into any existing label set.
	leLabel := func(le string) string {
		if f.labelKey == "" {
			return fmt.Sprintf(`{le="%s"}`, le)
		}
		return fmt.Sprintf(`{%s="%s",le="%s"}`, f.labelKey, promLabelEsc.Replace(c.labelVal), le)
	}
	cum := int64(0)
	for i := 0; i < histBuckets; i++ {
		n := c.hist.Bucket(i)
		cum += n
		// Skip interior empty buckets to keep snapshots readable, but
		// always emit the first, any non-empty, and the +Inf bucket.
		if n == 0 && i != 0 && i != histBuckets-1 {
			continue
		}
		le := fmt.Sprint(bucketUpper(i))
		if i == histBuckets-1 {
			le = "+Inf"
		}
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, leLabel(le), cum); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %d\n", f.name, label, c.hist.Sum()); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", f.name, label, c.hist.Count())
	return err
}
