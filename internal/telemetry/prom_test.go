package telemetry

import (
	"bufio"
	"bytes"
	"fmt"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"juggler/internal/golden"
	"juggler/internal/packet"
	"juggler/internal/sim"
)

// The exposition-format grammar the conformance test enforces.
var (
	promMetricName = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	promLabelName  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
	promSampleLine = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(?:\{(.*)\})? (\S+)$`)
)

// promUnescape inverts the text-format label-value escaping; it fails on
// any escape the format does not define (which is how %q-style \t or \xNN
// leakage is caught).
func promUnescape(t *testing.T, s string) string {
	t.Helper()
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		if s[i] != '\\' {
			b.WriteByte(s[i])
			continue
		}
		i++
		if i == len(s) {
			t.Fatalf("dangling backslash in %q", s)
		}
		switch s[i] {
		case '\\':
			b.WriteByte('\\')
		case '"':
			b.WriteByte('"')
		case 'n':
			b.WriteByte('\n')
		default:
			t.Fatalf("escape \\%c in %q is not in the exposition format", s[i], s)
		}
	}
	return b.String()
}

// parseLabels splits a {k="v",k2="v2"} body, honoring escaped quotes.
func parseLabels(t *testing.T, body string) map[string]string {
	t.Helper()
	out := map[string]string{}
	for len(body) > 0 {
		eq := strings.IndexByte(body, '=')
		if eq < 0 || len(body) < eq+2 || body[eq+1] != '"' {
			t.Fatalf("malformed label body %q", body)
		}
		key := body[:eq]
		if !promLabelName.MatchString(key) {
			t.Errorf("label name %q invalid", key)
		}
		rest := body[eq+2:]
		end := -1
		for i := 0; i < len(rest); i++ {
			if rest[i] == '\\' {
				i++
				continue
			}
			if rest[i] == '"' {
				end = i
				break
			}
		}
		if end < 0 {
			t.Fatalf("unterminated label value in %q", body)
		}
		out[key] = promUnescape(t, rest[:end])
		body = rest[end+1:]
		body = strings.TrimPrefix(body, ",")
	}
	return out
}

// TestPromConformance renders a registry whose label values and help texts
// exercise every byte the escaper must handle, then checks the snapshot
// against the text exposition format: every family has HELP and TYPE
// before its samples, metric and label names match the grammar, and label
// values round-trip through the format's three escapes exactly.
func TestPromConformance(t *testing.T) {
	s := sim.New(1)
	k := New(s, Options{})
	nasty := []string{
		`plain`,
		`back\slash`,
		`quo"te`,
		"new\nline",
		"tab\there", // passes through raw: \t is NOT an exposition escape
		`mixed\"all three` + "\n",
		"unicode-µs",
	}
	for _, v := range nasty {
		k.Reg().CounterL("conf_causes_total", `Causes with \ and "quotes" and`+"\nnewlines.", "cause", v).Inc()
		k.Reg().HistogramL("conf_ns", "Sojourn.", "span", v).Observe(5)
	}
	k.Reg().Gauge("conf_depth", "Depth.").Set(3)

	var buf bytes.Buffer
	if err := k.Metrics.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}

	type familyState struct{ help, typ bool }
	families := map[string]*familyState{}
	seenValues := map[string]map[string]bool{} // family -> label values seen
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "# HELP "):
			rest := strings.TrimPrefix(line, "# HELP ")
			name, help, _ := strings.Cut(rest, " ")
			if !promMetricName.MatchString(name) {
				t.Errorf("HELP for invalid metric name %q", name)
			}
			promUnescape(t, help) // fails the test on undefined escapes
			if families[name] == nil {
				families[name] = &familyState{}
			}
			families[name].help = true
		case strings.HasPrefix(line, "# TYPE "):
			fields := strings.Fields(line)
			if len(fields) != 4 {
				t.Fatalf("malformed TYPE line %q", line)
			}
			name, typ := fields[2], fields[3]
			switch typ {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				t.Errorf("TYPE %q invalid for %s", typ, name)
			}
			if families[name] == nil || !families[name].help {
				t.Errorf("TYPE before HELP for %s", name)
			}
			families[name].typ = true
		default:
			m := promSampleLine.FindStringSubmatch(line)
			if m == nil {
				t.Fatalf("sample line does not match grammar: %q", line)
			}
			name := m[1]
			base := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(name,
				"_bucket"), "_sum"), "_count")
			st := families[base]
			if st == nil {
				st = families[name]
				base = name
			}
			if st == nil || !st.help || !st.typ {
				t.Errorf("sample for %s before its HELP/TYPE", name)
				continue
			}
			if m[2] != "" {
				labels := parseLabels(t, m[2])
				if seenValues[base] == nil {
					seenValues[base] = map[string]bool{}
				}
				for key, v := range labels {
					if key != "le" {
						seenValues[base][v] = true
					}
				}
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}

	// Round trip: every nasty label value must come back byte-exact.
	for _, fam := range []string{"conf_causes_total", "conf_ns"} {
		for _, v := range nasty {
			if !seenValues[fam][v] {
				t.Errorf("%s: label value %q lost in the escape round trip (saw %d values)",
					fam, v, len(seenValues[fam]))
			}
		}
	}
}

// TestPromForensicsGolden pins the exposition bytes of the forensics metric
// families (decision, anomaly, attribution) against a golden file.
func TestPromForensicsGolden(t *testing.T) {
	s := sim.New(1)
	k := New(s, Options{Forensics: ForensicsOptions{InflationBytes: 4096}})
	step := func(d Decision) {
		k.Decide(&d)
		s.RunFor(1000)
	}
	step(Decision{Layer: LayerCore, Op: OpFlush, Cause: "sealed", Flow: testFlow,
		Seq: 0, EndSeq: 2920, SeqNext: 2920, N: 2})
	step(Decision{Layer: LayerCore, Op: OpPhase, Cause: CausePhaseDrained, Flow: testFlow,
		Note: "active-merge>post-merge"})
	step(Decision{Layer: LayerCore, Op: OpFlush, Cause: "ofo_timeout", Flow: testFlow,
		Seq: 4380, EndSeq: 5840, Hole: true, HoleSeq: 2920, QPkts: 3, QBytes: 4380, N: 1})
	step(Decision{Layer: LayerCore, Op: OpEvict, Cause: "evict", Flow: testFlow, N: 1})
	k.ObserveDelivery(stampedSegment(testFlow, 0, [packet.NumHops]int64{100, 110, 130, 160, 165, 265}))
	k.ObserveDelivery(stampedSegment(testFlow, 1460, [packet.NumHops]int64{200, 215, 240, 280, 290, 1290}))

	var buf bytes.Buffer
	if err := k.Metrics.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	golden.Check(t, filepath.Join("testdata", "forensics.prom"), buf.Bytes())
}

// TestPromBucketsCumulative checks histogram exposition invariants on a
// forensics span family: le buckets are cumulative, the +Inf bucket equals
// _count, and _sum matches the observations.
func TestPromBucketsCumulative(t *testing.T) {
	s := sim.New(1)
	k := New(s, Options{})
	h := k.Reg().Histogram("cum_ns", "x")
	var want int64
	for _, v := range []int64{1, 3, 3, 100, 1 << 40} {
		h.Observe(v)
		want += v
	}
	var buf bytes.Buffer
	if err := k.Metrics.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	prev := int64(-1)
	var inf, count, sum int64
	for _, line := range strings.Split(buf.String(), "\n") {
		var v int64
		switch {
		case strings.HasPrefix(line, "cum_ns_bucket"):
			if _, err := fmt.Sscanf(line[strings.Index(line, "} ")+2:], "%d", &v); err != nil {
				t.Fatalf("bad bucket line %q", line)
			}
			if v < prev {
				t.Fatalf("buckets not cumulative: %d after %d", v, prev)
			}
			prev = v
			if strings.Contains(line, `le="+Inf"`) {
				inf = v
			}
		case strings.HasPrefix(line, "cum_ns_count "):
			fmt.Sscanf(strings.TrimPrefix(line, "cum_ns_count "), "%d", &count)
		case strings.HasPrefix(line, "cum_ns_sum "):
			fmt.Sscanf(strings.TrimPrefix(line, "cum_ns_sum "), "%d", &sum)
		}
	}
	if inf != 5 || count != 5 {
		t.Errorf("+Inf bucket %d, count %d, want 5/5", inf, count)
	}
	if sum != want {
		t.Errorf("sum %d, want %d", sum, want)
	}
}
